package adaptive

import (
	"math"
	"reflect"
	"testing"

	"pactrain/internal/collective"
	"pactrain/internal/netsim"
)

func TestCanonicalCandidates(t *testing.T) {
	t.Parallel()
	all, err := CanonicalCandidates(nil)
	if err != nil || !reflect.DeepEqual(all, Formats()) {
		t.Fatalf("nil must canonicalize to every format: %v, %v", all, err)
	}
	ordered, err := CanonicalCandidates([]string{FormatIndexList, FormatDense})
	if err != nil || !reflect.DeepEqual(ordered, []string{FormatDense, FormatIndexList}) {
		t.Fatalf("order must canonicalize: %v, %v", ordered, err)
	}
	if _, err := CanonicalCandidates([]string{"smoke-signals"}); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := CanonicalCandidates([]string{FormatDense, FormatDense}); err == nil {
		t.Fatal("duplicate format accepted")
	}
}

// wanFabric builds the Fig. 4 topology at WAN latency with a trace dropping
// the bottleneck to 10% from flipAt onwards — the regime flip the
// controller must react to.
func wanFabric(flipAt float64) (*netsim.Fabric, []netsim.NodeID) {
	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: 1 * netsim.Gbps, LatencySec: 5e-3})
	f := netsim.NewFabric(topo)
	for _, li := range topo.InterSwitchLinks() {
		f.SetTrace(&netsim.BandwidthTrace{LinkIndex: li, Segments: []netsim.TraceSegment{
			{UntilSec: flipAt, Scale: 1},
			{UntilSec: math.Inf(1), Scale: 0.1},
		}})
	}
	return f, topo.Hosts()[:4]
}

// Bucket geometry where the ranking is regime-dependent: at full 1 Gbps the
// latency term dominates and the index-list's w-1 ring steps beat the
// ternary all-reduce's 2(w-1); in the 10× dip the byte volume dominates and
// ternary's 1 B/element beats COO's 8 B/element.
const (
	testElems = 4874
	testNNZ   = 2437
	testScale = 18.5
)

func newTestController(t *testing.T, dwell int, margin float64, flipAt float64) *Controller {
	t.Helper()
	fabric, hosts := wanFabric(flipAt)
	return New(Options{
		Margin:     margin,
		Dwell:      dwell,
		Candidates: []string{FormatCompactTernary, FormatIndexList},
		Algorithm:  collective.MustAlgorithm("ring"),
		Fabric:     fabric,
		Hosts:      hosts,
		WireScale:  testScale,
	})
}

func TestControllerTracksRegimeFlip(t *testing.T) {
	t.Parallel()
	const dwell = 2
	ctrl := newTestController(t, dwell, 0.05, 10)

	// Full bandwidth: the first decision takes the cheapest outright.
	dec := ctrl.Decide(0, testElems, testNNZ, 0)
	if dec.Format != FormatIndexList {
		t.Fatalf("at full bandwidth the index-list must win, got %q (quotes %v)", dec.Format, dec.Quotes)
	}
	if dec.Switched {
		t.Fatal("first decision is a pick, not a switch")
	}
	// Steady state before the flip: the incumbent holds, no switches.
	for _, tm := range []float64{1, 3, 5, 9} {
		if dec = ctrl.Decide(0, testElems, testNNZ, tm); dec.Format != FormatIndexList || dec.Switched {
			t.Fatalf("incumbent must hold before the flip: %+v at t=%v", dec, tm)
		}
	}

	// After the flip the ternary format undercuts the incumbent; the switch
	// completes after exactly dwell winning rounds.
	for round := 1; round <= dwell; round++ {
		dec = ctrl.Decide(0, testElems, testNNZ, 10+float64(round))
		wantFormat := FormatIndexList
		if round == dwell {
			wantFormat = FormatCompactTernary
		}
		if dec.Format != wantFormat || dec.Switched != (round == dwell) {
			t.Fatalf("flip round %d: got %+v, want format %q switched=%v",
				round, dec, wantFormat, round == dwell)
		}
	}
	if ctrl.Switches() != 1 {
		t.Fatalf("switch count %d, want 1", ctrl.Switches())
	}
	counts := ctrl.Counts()
	if counts[FormatIndexList] == 0 || counts[FormatCompactTernary] == 0 {
		t.Fatalf("decision counts missing a format: %v", counts)
	}
}

func TestControllerMarginBlocksSwitch(t *testing.T) {
	t.Parallel()
	// A margin wider than the post-flip advantage keeps the incumbent.
	ctrl := newTestController(t, 1, 0.95, 10)
	if dec := ctrl.Decide(0, testElems, testNNZ, 0); dec.Format != FormatIndexList {
		t.Fatalf("initial pick %q", dec.Format)
	}
	for _, tm := range []float64{11, 12, 13, 14} {
		if dec := ctrl.Decide(0, testElems, testNNZ, tm); dec.Format != FormatIndexList || dec.Switched {
			t.Fatalf("a 95%% margin must block the switch: %+v", dec)
		}
	}
}

func TestControllerDwellDelaysSwitch(t *testing.T) {
	t.Parallel()
	const dwell = 4
	ctrl := newTestController(t, dwell, 0.05, 10)
	ctrl.Decide(0, testElems, testNNZ, 0)
	for round := 1; round < dwell; round++ {
		if dec := ctrl.Decide(0, testElems, testNNZ, 10+float64(round)); dec.Switched {
			t.Fatalf("switched after %d winning rounds, dwell is %d", round, dwell)
		}
	}
	if dec := ctrl.Decide(0, testElems, testNNZ, 10+float64(dwell)); !dec.Switched {
		t.Fatal("dwell satisfied but no switch")
	}
}

func TestControllerResetForgetsIncumbents(t *testing.T) {
	t.Parallel()
	ctrl := newTestController(t, 2, 0.05, 10)
	ctrl.Decide(0, testElems, testNNZ, 0)
	ctrl.Reset()
	// Post-reset, post-flip: the first decision re-picks from scratch
	// (ternary, the dipped regime's winner) instead of defending the old
	// incumbent.
	if dec := ctrl.Decide(0, testElems, testNNZ, 20); dec.Format != FormatCompactTernary || dec.Switched {
		t.Fatalf("reset must clear the incumbent: %+v", dec)
	}
}

// TestControllerDeterministic is the lockstep property the trainer relies
// on: two controllers fed identical inputs produce identical decisions.
func TestControllerDeterministic(t *testing.T) {
	t.Parallel()
	a := newTestController(t, 2, 0.05, 10)
	b := newTestController(t, 2, 0.05, 10)
	for _, tm := range []float64{0, 2, 9, 11, 12, 13, 30} {
		da := a.Decide(0, testElems, testNNZ, tm)
		db := b.Decide(0, testElems, testNNZ, tm)
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("controllers diverged at t=%v: %+v vs %+v", tm, da, db)
		}
	}
}

func TestDenseDominatedByCompact(t *testing.T) {
	t.Parallel()
	// With a strict subset mask (nnz < n) and equal wire format, the
	// compact payload can never lose to dense — the controller's first pick
	// must not be dense.
	fabric, hosts := wanFabric(10)
	ctrl := New(Options{
		Candidates: []string{FormatDense, FormatCompact},
		Algorithm:  collective.MustAlgorithm("ring"),
		Fabric:     fabric,
		Hosts:      hosts,
		WireScale:  testScale,
	})
	if dec := ctrl.Decide(0, testElems, testNNZ, 0); dec.Format != FormatCompact {
		t.Fatalf("dense beat compact at half density: %+v", dec)
	}
}

func TestSummarizeCounts(t *testing.T) {
	t.Parallel()
	got := SummarizeCounts(map[string]int{FormatIndexList: 3, FormatCompactTernary: 40})
	if got != "mask-compact-ternary:40 index-list:3" {
		t.Fatalf("summary %q", got)
	}
	if SummarizeCounts(nil) != "(none)" {
		t.Fatal("empty summary")
	}
}

func TestRegretBound(t *testing.T) {
	t.Parallel()
	if r := Regret(0.05); math.Abs(r-1/0.95) > 1e-12 {
		t.Fatalf("regret %v", r)
	}
	if Regret(0) != 1/(1-DefaultMargin) {
		t.Fatal("zero margin must take the default")
	}
}

// TestDecisionQuotesRestrictedCandidates pins the ledger discipline the
// audit layer depends on: with a restricted candidate set, Decide quotes
// exactly the configured candidates — no phantom formats — in canonical
// order, and each quote equals PriceQuotes' price of that format.
func TestDecisionQuotesRestrictedCandidates(t *testing.T) {
	t.Parallel()
	ctrl := newTestController(t, 1, 0.05, 10)
	fabric, hosts := wanFabric(10)
	want := []string{FormatCompactTernary, FormatIndexList}
	for round := 0; round < 4; round++ {
		at := float64(round)
		d := ctrl.Decide(0, testElems, testNNZ, at)
		if len(d.Quotes) != len(want) {
			t.Fatalf("round %d: %d quotes for %d candidates: %+v", round, len(d.Quotes), len(want), d.Quotes)
		}
		ref := PriceQuotes(collective.NewPricer(collective.MustAlgorithm("ring"), fabric, hosts),
			testScale, want, testElems, testNNZ, at)
		for i, q := range d.Quotes {
			if q.Format != want[i] {
				t.Fatalf("round %d quote %d is %q, want %q (canonical order)", round, i, q.Format, want[i])
			}
			if q.CostSeconds != ref[i].CostSeconds {
				t.Fatalf("round %d %s: decision quote %v != PriceQuotes %v",
					round, q.Format, q.CostSeconds, ref[i].CostSeconds)
			}
		}
		if d.Format == FormatDense || d.Format == FormatCompact {
			t.Fatalf("round %d picked %q, outside the candidate set", round, d.Format)
		}
	}
}
