package netsim

import (
	"math"
	"testing"
)

// TestScaleAtEdgeCases pins BandwidthTrace.scaleAt's boundary semantics:
// segments apply while t < UntilSec (a boundary time belongs to the *next*
// segment), the last segment extends to infinity, and a trace with no
// segments scales by 1.
func TestScaleAtEdgeCases(t *testing.T) {
	t.Parallel()

	empty := &BandwidthTrace{LinkIndex: 0}
	if got := empty.scaleAt(0); got != 1 {
		t.Fatalf("empty trace at t=0: scale %v, want 1", got)
	}
	if got := empty.scaleAt(1e9); got != 1 {
		t.Fatalf("empty trace far future: scale %v, want 1", got)
	}

	tr := &BandwidthTrace{LinkIndex: 0, Segments: []TraceSegment{
		{UntilSec: 2, Scale: 1.0},
		{UntilSec: 4, Scale: 0.1},
		{UntilSec: 6, Scale: 0.5},
	}}
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 1.0},
		{1.999, 1.0},
		{2, 0.1}, // exact boundary: strictly-less, so the next segment
		{3.5, 0.1},
		{4, 0.5}, // exact boundary again
		{5.999, 0.5},
		{6, 0.5}, // past the last boundary: the final segment extends
		{1e12, 0.5},
	}
	for _, c := range cases {
		if got := tr.scaleAt(c.t); got != c.want {
			t.Fatalf("scaleAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}

	// An infinite final segment behaves identically to running off the end.
	inf := &BandwidthTrace{LinkIndex: 0, Segments: []TraceSegment{
		{UntilSec: 1, Scale: 0.2},
		{UntilSec: math.Inf(1), Scale: 0.7},
	}}
	if got := inf.scaleAt(1e12); got != 0.7 {
		t.Fatalf("infinite segment: scale %v, want 0.7", got)
	}

	// A single-segment trace holds its scale forever, before and after its
	// nominal end.
	single := &BandwidthTrace{LinkIndex: 0, Segments: []TraceSegment{{UntilSec: 5, Scale: 0.3}}}
	if got := single.scaleAt(4); got != 0.3 {
		t.Fatalf("single segment active window: %v", got)
	}
	if got := single.scaleAt(5); got != 0.3 {
		t.Fatalf("single segment past its end: %v, want the last scale to extend", got)
	}
}
