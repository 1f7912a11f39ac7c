package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := &Table{
		Title:  "Demo",
		Header: []string{"name", "value"},
	}
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "22")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, underline, header, separator, two rows
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Header and rows align: "value" column starts at the same offset.
	hIdx := strings.Index(lines[2], "value")
	rIdx := strings.Index(lines[5], "22")
	if hIdx != rIdx {
		t.Errorf("columns misaligned: header@%d row@%d\n%s", hIdx, rIdx, out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := &Table{Header: []string{"x"}}
	tb.AddRow("1")
	if strings.Contains(tb.String(), "=") && strings.HasPrefix(tb.String(), "=") {
		t.Error("title underline emitted without title")
	}
}

func TestF(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"}, {2.0, "2"}, {0.125, "0.125"}, {3.1000, "3.1"},
	}
	for _, c := range cases {
		if got := F(c.in); got != c.want {
			t.Errorf("F(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMsUs(t *testing.T) {
	if got := Ms(1.5e6); got != "1.5ms" {
		t.Errorf("Ms = %q", got)
	}
}

func TestStackedBreakdown(t *testing.T) {
	sb := &StackedBreakdown{
		Title:      "breakdown",
		Categories: []string{"BUSY", "LMEM", "RMEM", "SYNC"},
		Labels:     []string{"p0", "p1"},
		Values:     [][]float64{{10, 5, 3, 2}, {5, 5, 5, 5}},
	}
	out := sb.String()
	if !strings.Contains(out, "B=BUSY") {
		t.Error("missing legend")
	}
	if !strings.Contains(out, "p0") || !strings.Contains(out, "p1") {
		t.Error("missing row labels")
	}
	// The taller row (20 total) fills the full width.
	if !strings.Contains(out, "BBBBB") {
		t.Error("missing stacked glyphs")
	}
}

func TestStackedBreakdownEmpty(t *testing.T) {
	sb := &StackedBreakdown{Categories: []string{"A"}, Labels: []string{"x"}, Values: [][]float64{{0}}}
	if out := sb.String(); !strings.Contains(out, "x") {
		t.Errorf("empty chart lost its label: %q", out)
	}
}
