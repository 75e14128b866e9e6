// Package metrics collects training trajectories and renders the
// tables/series the PacTrain paper reports: accuracy-vs-time curves,
// time-to-accuracy (TTA), relative TTA normalized to the all-reduce
// baseline, and throughput summaries.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Point is one evaluation sample along a training run.
type Point struct {
	Iter    int
	Epoch   int
	SimTime float64 // simulated seconds since training start
	Acc     float64 // test accuracy in [0,1]
	Loss    float64 // training loss at the time of evaluation
}

// Curve is an accuracy trajectory ordered by time.
type Curve struct {
	Points []Point
}

// Add appends a point.
func (c *Curve) Add(p Point) { c.Points = append(c.Points, p) }

// TTA returns the simulated time at which accuracy first reaches target.
// ok is false if the run never reached it, in which case the returned time
// is the end-of-run time (a lower bound on the true TTA).
func (c *Curve) TTA(target float64) (t float64, ok bool) {
	for _, p := range c.Points {
		if p.Acc >= target {
			return p.SimTime, true
		}
	}
	if n := len(c.Points); n > 0 {
		return c.Points[n-1].SimTime, false
	}
	return math.Inf(1), false
}

// IterTo returns the iteration at which accuracy first reaches target.
func (c *Curve) IterTo(target float64) (int, bool) {
	for _, p := range c.Points {
		if p.Acc >= target {
			return p.Iter, true
		}
	}
	return 0, false
}

// FinalAcc returns the accuracy of the last point (0 if empty).
func (c *Curve) FinalAcc() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].Acc
}

// BestAcc returns the maximum accuracy along the curve.
func (c *Curve) BestAcc() float64 {
	best := 0.0
	for _, p := range c.Points {
		if p.Acc > best {
			best = p.Acc
		}
	}
	return best
}

// RelativeTTA returns tta/baselineTTA, the normalization used by Fig. 3
// (lower is better; the all-reduce baseline is 1.0).
func RelativeTTA(tta, baselineTTA float64) float64 {
	if baselineTTA == 0 {
		return math.Inf(1)
	}
	return tta / baselineTTA
}

// Speedup returns baselineTTA/tta (higher is better), the form quoted in
// the paper's abstract ("1.25–8.72×").
func Speedup(tta, baselineTTA float64) float64 {
	if tta == 0 {
		return math.Inf(1)
	}
	return baselineTTA / tta
}

// Table is a simple column-aligned table renderer for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable constructs a table with the given title and headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Headers) {
		cells = cells[:len(t.Headers)]
	}
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// String renders the table in GitHub-flavored markdown.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2) + "|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FormatSeconds renders a duration in the most readable unit.
func FormatSeconds(s float64) string {
	switch {
	case math.IsInf(s, 1):
		return "∞"
	case s >= 3600:
		return fmt.Sprintf("%.1fh", s/3600)
	case s >= 60:
		return fmt.Sprintf("%.1fm", s/60)
	case s >= 1:
		return fmt.Sprintf("%.1fs", s)
	default:
		return fmt.Sprintf("%.0fms", s*1000)
	}
}

// FormatBytes renders a byte count with binary units.
func FormatBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// CSV renders the curve as "iter,epoch,sim_time,acc,loss" lines for
// external plotting.
func (c *Curve) CSV() string {
	var b strings.Builder
	b.WriteString("iter,epoch,sim_time,acc,loss\n")
	for _, p := range c.Points {
		fmt.Fprintf(&b, "%d,%d,%.6f,%.4f,%.4f\n", p.Iter, p.Epoch, p.SimTime, p.Acc, p.Loss)
	}
	return b.String()
}
