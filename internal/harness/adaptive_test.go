package harness

import (
	"math"
	"strings"
	"testing"

	"pactrain/internal/adaptive"
	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/ddp"
	"pactrain/internal/harness/engine"
	"pactrain/internal/netsim"
)

// TestRunAdaptiveQuick asserts the experiment's headline invariant: at
// every operating point — both fabrics, every bandwidth — the online
// controller's TTA is at or below the best static wire format's. The
// controller is never told which regime it is in; it must match whichever
// format that regime favors (and beat them all when the trace straddles a
// crossover, since no single format is right in both phases).
func TestRunAdaptiveQuick(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	res, err := RunAdaptive(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	points := len(res.VarBWBandwidths) + len(res.TwoRackBandwidths)
	wantCells := points * (len(res.Formats) + 1)
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}
	for _, part := range []string{"varbw", "two-rack"} {
		for _, bw := range res.bandwidths(part) {
			ad, ok := res.Cell(part, AdaptiveSchemeName, bw)
			if !ok {
				t.Fatalf("missing adaptive cell %s/%v", part, bw)
			}
			if !ad.Reached {
				t.Fatalf("adaptive did not reach target at %s/%s", part, netsim.FormatBandwidth(bw))
			}
			best, ok := res.BestStaticTTA(part, bw)
			if !ok {
				t.Fatalf("missing static cells %s/%v", part, bw)
			}
			if ad.TTASeconds > best {
				t.Fatalf("adaptive TTA %v exceeds best static %v at %s/%s",
					ad.TTASeconds, best, part, netsim.FormatBandwidth(bw))
			}
			if ad.Decisions == "" {
				t.Fatalf("adaptive cell %s/%s has no decision summary", part, netsim.FormatBandwidth(bw))
			}
		}
	}
	// The decisions must actually be regime-dependent: some operating point
	// mixes formats (otherwise a static scheme would do).
	mixed := false
	for _, c := range res.Cells {
		if c.Scheme == AdaptiveSchemeName && strings.Contains(c.Decisions, " ") {
			mixed = true
		}
	}
	if !mixed {
		t.Fatal("controller picked one format at every operating point — no regime dependence")
	}
	out := res.Render()
	for _, want := range []string{"Adaptive", "static:mask-compact-ternary", "best static", "switches"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// adaptiveWANConfig builds the quick adaptive config on the WAN-latency
// Fig. 4 fabric, optionally dipping the bottleneck to 10% from dipAt on.
func adaptiveWANConfig(opt Options, dipAt float64) core.Config {
	w := QuickWorkloads()[0]
	cfg := baseConfig(w, core.SchemeAdaptive, opt)
	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: 1 * netsim.Gbps, LatencySec: adaptiveWANLatency})
	cfg.Topology = topo
	if dipAt > 0 {
		for _, li := range topo.InterSwitchLinks() {
			cfg.Traces = append(cfg.Traces, &netsim.BandwidthTrace{LinkIndex: li, Segments: []netsim.TraceSegment{
				{UntilSec: dipAt, Scale: 1},
				{UntilSec: math.Inf(1), Scale: 0.1},
			}})
		}
	}
	return cfg
}

// decisionSequence flattens a run's comm record to its ordered decisions.
func decisionSequence(res *core.Result) []string {
	var seq []string
	for _, ops := range res.CommLog.Iters {
		for _, op := range ops {
			if op.Decision != "" {
				seq = append(seq, op.Decision)
			}
		}
	}
	return seq
}

// TestAdaptiveRecostExactOnRecordedFabric is the half of the exactness
// contract that still holds for the adaptive scheme: re-costing its log on
// a fabric identical to the recorded one — traces included — reproduces the
// clock bit-for-bit, because the replayed ops are the recorded decisions'
// consequences priced by the same cost functions at the same times.
func TestAdaptiveRecostExactOnRecordedFabric(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	cfg := adaptiveWANConfig(opt, 2)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cum := recording{cfg, res}.price(point{}) // the zero point: cfg.NewFabric
	if got := cum[len(cum)-1]; got != res.SimSeconds {
		t.Fatalf("re-costed end time %v != recorded SimSeconds %v (Δ %g)",
			got, res.SimSeconds, got-res.SimSeconds)
	}
	for _, p := range res.Curve.Points {
		if cum[p.Iter] != p.SimTime {
			t.Fatalf("re-costed time at iter %d = %v, recorded %v", p.Iter, cum[p.Iter], p.SimTime)
		}
	}
}

// TestAdaptiveRecostRequiresRecordedFabric documents the caveat DESIGN.md
// §8 states: a multi-candidate adaptive run is fabric-sensitive — its
// decision sequence changes with the network — so re-costing its log onto
// a *different* fabric replays decisions the controller would not have made
// there and diverges from training there directly. A single-candidate
// controller is fabric-independent and re-costs exactly anywhere, which is
// what lets the experiment's static baselines train once.
func TestAdaptiveRecostRequiresRecordedFabric(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	flat := adaptiveWANConfig(opt, 0)
	dipped := adaptiveWANConfig(opt, 2)
	if !flat.FabricSensitive() {
		t.Fatal("multi-candidate config must be fabric-sensitive")
	}

	flatRes, err := core.Run(flat)
	if err != nil {
		t.Fatal(err)
	}
	dippedRes, err := core.Run(dipped)
	if err != nil {
		t.Fatal(err)
	}
	// The premise: the fabrics elicit different decision sequences.
	flatSeq, dippedSeq := decisionSequence(flatRes), decisionSequence(dippedRes)
	same := len(flatSeq) == len(dippedSeq)
	if same {
		for i := range flatSeq {
			if flatSeq[i] != dippedSeq[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("fabrics elicited identical decision sequences; the caveat has nothing to bite on")
	}
	// The consequence: replaying the flat-fabric log on the dipped fabric
	// does not reproduce a dipped-fabric training. The re-price function
	// refuses this replay, so the kernel is driven directly.
	dippedFabric := dipped.NewFabric()
	coster := newOpCoster(collective.MustAlgorithm(flat.Collective), dippedFabric, dippedFabric.Topo.Hosts()[:flat.World], false)
	cum := core.Replay(&flat, flatRes.CommLog, coster.cost, nil)
	if got := cum[len(cum)-1]; got == dippedRes.SimSeconds {
		t.Fatalf("cross-fabric re-cost accidentally exact (%v); the harness relies on it NOT being a substitute for retraining", got)
	}
	// The re-price function enforces the rule rather than leaving it to
	// convention: re-pricing a fabric-sensitive run across networks panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("recording.tta accepted a fabric-sensitive config at a foreign bandwidth")
			}
		}()
		_, _ = recording{flat, flatRes}.tta(fig4At(100*netsim.Mbps), 0.7)
	}()

	// Control: pin the candidate set to one format and the very same
	// cross-fabric re-cost becomes exact again.
	single := adaptiveWANConfig(opt, 0)
	single.AdaptCandidates = []string{adaptive.FormatCompactTernary}
	if single.FabricSensitive() {
		t.Fatal("single-candidate config must be fabric-independent")
	}
	singleRes, err := core.Run(single)
	if err != nil {
		t.Fatal(err)
	}
	singleDipped := adaptiveWANConfig(opt, 2)
	singleDipped.AdaptCandidates = []string{adaptive.FormatCompactTernary}
	singleDippedRes, err := core.Run(singleDipped)
	if err != nil {
		t.Fatal(err)
	}
	cum = recording{single, singleRes}.price(point{topo: singleDipped.Topology, traces: singleDipped.Traces})
	if got := cum[len(cum)-1]; got != singleDippedRes.SimSeconds {
		t.Fatalf("single-candidate cross-fabric re-cost %v != traced training %v (Δ %g)",
			got, singleDippedRes.SimSeconds, got-singleDippedRes.SimSeconds)
	}
}

// TestRepriceGuardsFabricSensitiveRecordings pins the re-price function's
// guard (DESIGN.md §8): a multi-candidate adaptive recording re-prices bit
// for bit at the zero point, its own fabric, and is refused at every other
// operating point — a foreign fabric, a foreign collective algorithm and a
// foreign overlap mode, each of which would have changed the controller's
// decisions.
func TestRepriceGuardsFabricSensitiveRecordings(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	cfg := adaptiveWANConfig(opt, 2)
	res, err := testEngine.Run(engine.Job{Label: "reprice-guard", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	rec := recording{cfg, res}
	cum := rec.price(point{})
	if got := cum[len(cum)-1]; got != res.SimSeconds {
		t.Fatalf("zero-point re-price %v != recorded SimSeconds %v (Δ %g)", got, res.SimSeconds, got-res.SimSeconds)
	}
	for _, foreign := range []struct {
		name string
		at   point
	}{
		{"fabric", fig4At(100 * netsim.Mbps)},
		{"algorithm", point{algo: "hierarchical"}},
		{"overlap", point{adjust: func(c *core.Config) { c.Overlap = ddp.OverlapBackward }}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("re-priced a fabric-sensitive recording at a foreign %s", foreign.name)
				}
			}()
			rec.price(foreign.at)
		}()
	}
}
