package repro

// Figure is one regenerable table or figure of the evaluation.
type Figure struct {
	// Name selects it (cmd/paperfigs -exp).
	Name string
	// Extra marks a beyond-paper experiment, which "all" skips: the
	// committed paper grid (and its golden file) stays exactly the paper's
	// figures, and the extras run only when named.
	Extra bool
	// Run regenerates it and returns its printable blocks, each printed
	// with one trailing newline.
	Run func(h *Harness) ([]string, error)
}

// Figures lists every table and figure the Harness regenerates, in the
// order the full evaluation prints them. It is the only such list:
// cmd/paperfigs iterates it, and TestFiguresRegistry fails a Table* or
// Figure* method that no entry reaches.
var Figures = []Figure{
	{"table1", false, func(h *Harness) ([]string, error) {
		t, _, err := h.Table1()
		if err != nil {
			return nil, err
		}
		return []string{t.String()}, nil
	}},
	{"fig1", false, printed((*Harness).Figure1)},
	{"fig2", false, printed((*Harness).Figure2)},
	{"fig3", false, printed((*Harness).Figure3)},
	{"fig7", false, printed((*Harness).Figure7)},
	{"figpsrs", false, printed((*Harness).FigurePSRS)},
	{"fig4", false, printed((*Harness).Figure4)},
	{"fig8", false, printed((*Harness).Figure8)},
	{"fig5", false, printed((*Harness).Figure5)},
	{"fig6", false, printed((*Harness).Figure6)},
	{"fig9", false, printed((*Harness).Figure9)},
	{"fig10", false, printed((*Harness).Figure10)},
	{"table23", false, printed((*Harness).Tables23)},
	{"figtopo", true, func(h *Harness) ([]string, error) {
		figs, err := h.FigureTopo()
		var blocks []string
		for _, f := range figs {
			blocks = append(blocks, f.blocks()...)
		}
		return blocks, err
	}},
	{"figskew", true, printed((*Harness).FigureSkew)},
}

// printable is a figure result that knows its printed form.
type printable interface{ blocks() []string }

func (f *SpeedupFigure) blocks() []string   { return []string{f.Table().String()} }
func (f *RelativeFigure) blocks() []string  { return []string{f.Table().String()} }
func (f *BreakdownFigure) blocks() []string { return []string{f.Chart()} }
func (bt *BestTables) blocks() []string {
	return []string{bt.Table2().String(), bt.Table3().String()}
}

// printed adapts a Harness method to Figure.Run.
func printed[F printable](fn func(*Harness) (F, error)) func(*Harness) ([]string, error) {
	return func(h *Harness) ([]string, error) {
		f, err := fn(h)
		if err != nil {
			return nil, err
		}
		return f.blocks(), nil
	}
}
