package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Report is one printable experiment artifact (a table or a figure's data
// series rendered as rows).
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one row; cell counts should match Columns.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a free-form note printed under the table.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(cell)
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", pad))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(r.Columns)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Runner produces the reports of one experiment.
type Runner func(f *Fixture) ([]*Report, error)

// Experiment couples an id with its runner and a description.
type Experiment struct {
	ID    string
	Paper string // which table/figure it reproduces
	Run   Runner
}

var registry = map[string]Experiment{}

// canonicalOrder is the paper's presentation order.
var canonicalOrder = []string{
	"T1", "T2", "F3", "F4", "F5", "F7", "F8", "F9", "F10",
	"F11", "F12", "F13", "F14", "F15", "F16", "F17", "F18", "F19", "AE",
	"X2", "X3", "X4", "X5", "X6", "X7", "X10", "X11", "X12", "X13",
}

func register(id, paper string, run Runner) {
	if _, dup := registry[id]; dup {
		panic("harness: duplicate experiment id " + id)
	}
	registry[id] = Experiment{ID: id, Paper: paper, Run: run}
}

// Experiments lists all registered experiments in the paper's order.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range canonicalOrder {
		if e, ok := registry[id]; ok {
			out = append(out, e)
		}
	}
	// Any experiment not in the canonical list (shouldn't happen) goes
	// last, sorted, so it is never silently dropped.
	var extra []string
	for id := range registry {
		found := false
		for _, c := range canonicalOrder {
			if c == id {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		out = append(out, registry[id])
	}
	return out
}

// Lookup returns the experiment with the given id (case-insensitive).
func Lookup(id string) (Experiment, error) {
	for key, e := range registry {
		if strings.EqualFold(key, id) {
			return e, nil
		}
	}
	var known []string
	for _, e := range Experiments() {
		known = append(known, e.ID)
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
}

// Run executes one experiment by id and prints its reports to w.
func Run(id string, f *Fixture, w io.Writer) error {
	e, err := Lookup(id)
	if err != nil {
		return err
	}
	reports, err := e.Run(f)
	if err != nil {
		return fmt.Errorf("harness: %s: %w", id, err)
	}
	for _, r := range reports {
		if err := r.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}

// RunAll executes every experiment in order.
func RunAll(f *Fixture, w io.Writer) error {
	for _, e := range Experiments() {
		if err := Run(e.ID, f, w); err != nil {
			return err
		}
	}
	return nil
}
