package detect

import (
	"fmt"
	"strings"
	"testing"
)

func TestSinkCollectsEvents(t *testing.T) {
	var s Sink
	if !s.Empty() {
		t.Error("fresh sink not empty")
	}
	s.ReportLazy(10, CheckStoreValue, 5, func() string { return fmt.Sprintf("mismatch %d", 7) })
	if s.Empty() || s.Total() != 1 {
		t.Fatalf("total = %d, want 1", s.Total())
	}
	e, ok := s.First()
	if !ok {
		t.Fatal("First() not ok")
	}
	if e.Cycle != 10 || e.Checker != CheckStoreValue || e.PC != 5 {
		t.Errorf("event = %+v", e)
	}
	if !strings.Contains(e.String(), "store-value") {
		t.Errorf("String() = %q", e.String())
	}
	if !strings.Contains(e.Detail, "mismatch 7") {
		t.Errorf("Detail = %q", e.Detail)
	}
}

func TestSinkLimit(t *testing.T) {
	s := Sink{Limit: 2}
	for i := 0; i < 5; i++ {
		s.Report(Event{Cycle: int64(i)})
	}
	if s.Total() != 5 {
		t.Errorf("total = %d, want 5", s.Total())
	}
	if len(s.Events()) != 2 {
		t.Errorf("stored = %d, want 2", len(s.Events()))
	}
}

// An event past the limit is only counted unless an Observer wants it:
// its detail is never built, and the stored events do not change.
func TestSinkLazyDetailPastLimit(t *testing.T) {
	s := Sink{Limit: 2}
	built := 0
	detail := func() string { built++; return fmt.Sprint("event ", built) }
	for i := 0; i < 5; i++ {
		s.ReportLazy(int64(i), CheckPCOrder, i, detail)
	}
	if s.Total() != 5 || built != 2 {
		t.Fatalf("total %d, details built %d; want 5 and 2", s.Total(), built)
	}
	if ev := s.Events(); len(ev) != 2 || ev[0].Detail != "event 1" || ev[1].Detail != "event 2" {
		t.Fatalf("stored %+v", ev)
	}
	var seen []Event
	s.Observer = func(e Event) { seen = append(seen, e) }
	s.ReportLazy(9, CheckPCOrder, 9, detail)
	if built != 3 || len(seen) != 1 || seen[0].Detail != "event 3" || len(s.Events()) != 2 {
		t.Fatalf("observed past the limit: built %d, seen %+v", built, seen)
	}
}

func TestSinkDefaultLimit(t *testing.T) {
	var s Sink
	for i := 0; i < DefaultLimit+10; i++ {
		s.Report(Event{})
	}
	if len(s.Events()) != DefaultLimit {
		t.Errorf("stored = %d, want %d", len(s.Events()), DefaultLimit)
	}
}

func TestCheckerNames(t *testing.T) {
	for c := Checker(0); c < NumCheckers; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "checker(") {
			t.Errorf("checker %d has no name", c)
		}
	}
	if s := Checker(200).String(); !strings.HasPrefix(s, "checker(") {
		t.Errorf("unknown checker String() = %q", s)
	}
}

func TestFirstOnEmptySink(t *testing.T) {
	var s Sink
	if _, ok := s.First(); ok {
		t.Error("First() on empty sink reported ok")
	}
}
