// Package stats provides the formatting helpers the experiment harnesses use
// to render paper tables and figures as aligned text.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table renders rows with aligned columns.
type Table struct {
	Title string
	cols  []string
	rows  [][]string
}

// NewTable builds a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, cols: cols}
}

// AddRow appends a row; missing cells render empty. Passing more cells than
// the table has columns is a programming error (the extra cells used to be
// dropped silently, hiding builder/header mismatches) and panics.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.cols) {
		panic(fmt.Sprintf("stats: AddRow: %d cells for %d columns in table %q",
			len(cells), len(t.cols), t.Title))
	}
	row := make([]string, len(t.cols))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.cols)
	seps := make([]string, len(t.cols))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Pct formats a fraction as a percentage with one decimal ("34.2").
func Pct(frac float64) string { return fmt.Sprintf("%.1f", frac*100) }

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Ratio returns num/den, or 0 when den is 0.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
