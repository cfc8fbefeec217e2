package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "bench", "value")
	tb.AddRow("equake", "34.0")
	tb.AddRow("sixtrack", "97.2")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "equake") || !strings.HasPrefix(lines[4], "sixtrack") {
		t.Errorf("rows out of order:\n%s", out)
	}
	// Columns must align: "value" column starts at the same offset in every
	// data line.
	idx := strings.Index(lines[3], "34.0")
	if idx < 0 || !strings.HasPrefix(lines[4][idx:], "97.2") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableMissingCells(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x") // missing cell renders empty
	if tb.NumRows() != 1 {
		t.Errorf("NumRows = %d, want 1", tb.NumRows())
	}
	if out := tb.String(); !strings.Contains(out, "x") {
		t.Errorf("missing row:\n%s", out)
	}
}

func TestTableExtraCellsPanic(t *testing.T) {
	tb := NewTable("Demo", "a", "b")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AddRow with extra cells did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "3 cells for 2 columns") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	tb.AddRow("y", "z", "junk")
}

func TestFormatHelpers(t *testing.T) {
	if got := Pct(0.342); got != "34.2" {
		t.Errorf("Pct = %q, want 34.2", got)
	}
	if got := F2(1.005); got != "1.00" && got != "1.01" {
		t.Errorf("F2 = %q", got)
	}
}

func TestMeanAndRatio(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Ratio(4, 2); got != 2 {
		t.Errorf("Ratio = %v, want 2", got)
	}
	if got := Ratio(4, 0); got != 0 {
		t.Errorf("Ratio(x,0) = %v, want 0", got)
	}
}
