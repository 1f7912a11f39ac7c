// Package report renders experiment results as aligned text tables and
// simple character charts, matching the rows and series the paper's
// tables and figures report.
package report

import (
	"fmt"
	"strings"
)

// Table is a generic titled table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float compactly (3 significant-ish decimals, trimmed).
func F(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Ms formats nanoseconds as milliseconds.
func Ms(ns float64) string { return F(ns/1e6) + "ms" }

// StackedBreakdown renders per-category magnitudes (e.g. BUSY, LMEM,
// RMEM, SYNC) as a labeled stacked text chart, one row per item; the
// tallest row spans stackWidth characters.
type StackedBreakdown struct {
	Title      string
	Categories []string // category names, in stacking order
	Labels     []string // row labels
	Values     [][]float64
}

// stackWidth is a StackedBreakdown's full bar width in characters.
const stackWidth = 60

// glyphs used per category, cycling.
var stackGlyphs = []byte{'B', 'l', 'r', 's', '#', '+', '*', '~'}

// String renders the chart.
func (s *StackedBreakdown) String() string {
	var maxTotal float64
	for _, row := range s.Values {
		var t float64
		for _, v := range row {
			t += v
		}
		if t > maxTotal {
			maxTotal = t
		}
	}
	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "%s\n", s.Title)
	}
	var legend []string
	for i, c := range s.Categories {
		legend = append(legend, fmt.Sprintf("%c=%s", stackGlyphs[i%len(stackGlyphs)], c))
	}
	fmt.Fprintf(&b, "  [%s]\n", strings.Join(legend, " "))
	labelW := 0
	for _, l := range s.Labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	for r, row := range s.Values {
		var total float64
		for _, v := range row {
			total += v
		}
		fmt.Fprintf(&b, "  %-*s |", labelW, s.Labels[r])
		if maxTotal > 0 {
			for i, v := range row {
				n := int(v / maxTotal * stackWidth)
				b.WriteString(strings.Repeat(string(stackGlyphs[i%len(stackGlyphs)]), n))
			}
		}
		fmt.Fprintf(&b, "| %s\n", F(total))
	}
	return b.String()
}
