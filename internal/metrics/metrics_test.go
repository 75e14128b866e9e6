package metrics

import (
	"math"
	"strings"
	"testing"
)

func curveFixture() *Curve {
	c := &Curve{}
	c.Add(Point{Iter: 10, Epoch: 0, SimTime: 1, Acc: 0.3, Loss: 2.0})
	c.Add(Point{Iter: 20, Epoch: 1, SimTime: 2, Acc: 0.6, Loss: 1.2})
	c.Add(Point{Iter: 30, Epoch: 2, SimTime: 3, Acc: 0.55, Loss: 1.1})
	c.Add(Point{Iter: 40, Epoch: 3, SimTime: 4, Acc: 0.8, Loss: 0.7})
	return c
}

func TestTTA(t *testing.T) {
	c := curveFixture()
	tta, ok := c.TTA(0.6)
	if !ok || tta != 2 {
		t.Fatalf("TTA(0.6) = %v,%v", tta, ok)
	}
	tta, ok = c.TTA(0.9)
	if ok || tta != 4 {
		t.Fatalf("unreached TTA should return end time: %v,%v", tta, ok)
	}
	empty := &Curve{}
	if tta, ok := empty.TTA(0.5); ok || !math.IsInf(tta, 1) {
		t.Fatalf("empty curve TTA = %v,%v", tta, ok)
	}
}

func TestIterTo(t *testing.T) {
	c := curveFixture()
	it, ok := c.IterTo(0.8)
	if !ok || it != 40 {
		t.Fatalf("IterTo = %v,%v", it, ok)
	}
	if _, ok := c.IterTo(0.99); ok {
		t.Fatal("IterTo beyond best must fail")
	}
}

func TestAccSummaries(t *testing.T) {
	c := curveFixture()
	if c.FinalAcc() != 0.8 || c.BestAcc() != 0.8 {
		t.Fatalf("summaries wrong: %v %v", c.FinalAcc(), c.BestAcc())
	}
	// Best can exceed final on a regressing curve.
	c.Add(Point{Iter: 50, SimTime: 5, Acc: 0.7})
	if c.BestAcc() != 0.8 || c.FinalAcc() != 0.7 {
		t.Fatal("best/final distinction lost")
	}
}

func TestRelativeAndSpeedup(t *testing.T) {
	if RelativeTTA(5, 10) != 0.5 {
		t.Fatal("RelativeTTA wrong")
	}
	if Speedup(5, 10) != 2 {
		t.Fatal("Speedup wrong")
	}
	if !math.IsInf(RelativeTTA(1, 0), 1) || !math.IsInf(Speedup(0, 1), 1) {
		t.Fatal("degenerate cases wrong")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("My Table", "a", "long-header")
	tb.AddRow("1", "2")
	tb.AddRow("333", "4", "overflow-cell-dropped")
	out := tb.String()
	if !strings.Contains(out, "My Table") || !strings.Contains(out, "long-header") {
		t.Fatalf("table render:\n%s", out)
	}
	if strings.Contains(out, "overflow-cell-dropped") {
		t.Fatal("overflow cell should be dropped")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, blank, header, separator, two rows.
	if len(lines) != 6 {
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		0.05: "50ms",
		2.5:  "2.5s",
		90:   "1.5m",
		7200: "2.0h",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Fatalf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
	if FormatSeconds(math.Inf(1)) != "∞" {
		t.Fatal("inf formatting")
	}
	if FormatBytes(2048) != "2.00KiB" {
		t.Fatalf("FormatBytes wrong: %s", FormatBytes(2048))
	}
	if FormatBytes(3<<20) != "3.00MiB" {
		t.Fatal("MiB formatting")
	}
}

func TestCSV(t *testing.T) {
	c := curveFixture()
	out := c.CSV()
	if !strings.HasPrefix(out, "iter,epoch,sim_time,acc,loss\n") {
		t.Fatalf("csv header:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 5 {
		t.Fatal("csv row count")
	}
}
