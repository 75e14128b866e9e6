package harness

import (
	"math"
	"testing"

	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/netsim"
)

func TestRunCollectivesQuick(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	res, err := RunCollectives(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(res.Algorithms) * len(res.Schemes) * len(res.Bandwidths)
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}
	for _, bw := range res.Bandwidths {
		for _, scheme := range res.Schemes {
			c, ok := res.Cell("ring", scheme, bw)
			if !ok || c.SpeedupVsRing != 1.0 {
				t.Fatalf("ring baseline for %s@%v = %+v, want speedup 1.0", scheme, bw, c)
			}
		}
	}
	// The acceptance invariant: hierarchical all-reduce beats the flat ring
	// on the bottlenecked two-rack fabric.
	hc, ok := res.Cell("hierarchical", "all-reduce", 100*netsim.Mbps)
	if !ok {
		t.Fatal("missing hierarchical all-reduce cell")
	}
	if hc.SpeedupVsRing <= 1.0 {
		t.Fatalf("hierarchical all-reduce speedup %v, want > 1.0 on bottlenecked two-rack fabric", hc.SpeedupVsRing)
	}
	if res.HierarchicalSpeedup("all-reduce") < hc.SpeedupVsRing {
		t.Fatal("HierarchicalSpeedup missed the 100 Mbps cell")
	}
	if r := res.Render(); len(r) == 0 {
		t.Fatal("empty render")
	}
}

// TestTrainingUnderEveryAlgorithm trains one quick run per algorithm and
// checks the two-plane contract: the convergence plane (accuracy curve,
// weight checksums) is algorithm-independent, while the cost plane (the
// simulated clock) moves with the algorithm.
func TestTrainingUnderEveryAlgorithm(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	w := QuickWorkloads()[0]
	sims := map[string]float64{}
	var refAcc float64
	var refChecksum float64
	for _, algo := range collective.AlgorithmNames() {
		cfg := baseConfig(w, "all-reduce", opt)
		cfg.Collective = algo
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Collective != algo {
			t.Fatalf("result records collective %q, want %q", res.Collective, algo)
		}
		sims[algo] = res.SimSeconds
		if algo == "ring" {
			refAcc = res.FinalAcc
			refChecksum = res.WeightChecksums[0]
			continue
		}
		if res.FinalAcc != refAcc {
			t.Fatalf("%s: final acc %v differs from ring %v — the data plane moved", algo, res.FinalAcc, refAcc)
		}
		if res.WeightChecksums[0] != refChecksum {
			t.Fatalf("%s: weight checksum differs from ring — the data plane moved", algo)
		}
	}
	if sims["tree"] == sims["ring"] || sims["hierarchical"] == sims["ring"] {
		t.Fatalf("algorithms did not move the clock on Fig. 4: %v", sims)
	}
}

// TestRecostExactPerAlgorithm extends the bit-exact re-costing contract to
// every registered algorithm: a run trained under algorithm X on fabric F
// is reproduced exactly by re-costing any equivalent recorded run under X
// on F — the recorded operations are algorithm-independent.
func TestRecostExactPerAlgorithm(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	w := QuickWorkloads()[0]
	for _, algo := range []string{"tree", "hierarchical"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			cfg := baseConfig(w, "pactrain-ternary", opt)
			cfg.Collective = algo
			trained, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Re-cost the ring-trained twin (shared via the engine) under
			// this algorithm on an identical fabric.
			ringRun, err := testEngine.Run(trainJob("recost-algo-test", w, "pactrain-ternary", opt))
			if err != nil {
				t.Fatal(err)
			}
			topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: cfg.BottleneckBps})
			cum := recostCumWith(collective.MustAlgorithm(algo), ringRun, &cfg, netsim.NewFabric(topo), false)
			if got := cum[len(cum)-1]; got != trained.SimSeconds {
				t.Fatalf("re-costed end time %v != trained SimSeconds %v (Δ %g)",
					got, trained.SimSeconds, got-trained.SimSeconds)
			}
			for _, p := range trained.Curve.Points {
				if cum[p.Iter] != p.SimTime {
					t.Fatalf("re-costed time at iter %d = %v, trained run recorded %v",
						p.Iter, cum[p.Iter], p.SimTime)
				}
			}
		})
	}
}

// TestRecostExactPerAlgorithmWithTraces is the variable-bandwidth version
// of the exactness contract: training under an oscillating bottleneck with
// a non-ring algorithm is reproduced bit-exactly by re-costing the untraced
// recorded run on a traced fabric — the path RunAblationVarBW rides.
func TestRecostExactPerAlgorithmWithTraces(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	w := QuickWorkloads()[0]
	for _, algo := range []string{"tree", "hierarchical"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			cfg := baseConfig(w, "fp16", opt)
			cfg.Collective = algo
			topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: cfg.BottleneckBps})
			var traces []*netsim.BandwidthTrace
			for _, li := range topo.InterSwitchLinks() {
				traces = append(traces, &netsim.BandwidthTrace{LinkIndex: li, Segments: []netsim.TraceSegment{
					{UntilSec: 1, Scale: 1},
					{UntilSec: 3, Scale: 0.1},
					{UntilSec: math.Inf(1), Scale: 1},
				}})
			}
			tracedCfg := cfg
			tracedCfg.Topology = topo
			tracedCfg.Traces = traces
			traced, err := core.Run(tracedCfg)
			if err != nil {
				t.Fatal(err)
			}

			untracedCfg := cfg
			untraced, err := core.Run(untracedCfg)
			if err != nil {
				t.Fatal(err)
			}
			fabric := netsim.NewFabric(netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: cfg.BottleneckBps}))
			for _, tr := range traces {
				fabric.SetTrace(tr)
			}
			cum := recostCum(untraced, &untracedCfg, fabric)
			if got := cum[len(cum)-1]; got != traced.SimSeconds {
				t.Fatalf("re-costed end time %v != traced SimSeconds %v (Δ %g)",
					got, traced.SimSeconds, got-traced.SimSeconds)
			}
			for _, p := range traced.Curve.Points {
				if cum[p.Iter] != p.SimTime {
					t.Fatalf("re-costed time at iter %d = %v, traced run recorded %v",
						p.Iter, cum[p.Iter], p.SimTime)
				}
			}
		})
	}
}

// TestOptionsCollectiveThreading checks the config plumbing: the option
// reaches every job config, "ring" normalizes to the empty default, and
// ring/empty share fingerprints while tree splits them.
func TestOptionsCollectiveThreading(t *testing.T) {
	t.Parallel()
	opt := quickOpts()
	opt.Collective = "tree"
	opt.defaults()
	w := QuickWorkloads()[0]
	cfg := baseConfig(w, "all-reduce", opt)
	if cfg.Collective != "tree" {
		t.Fatalf("baseConfig dropped the collective: %q", cfg.Collective)
	}

	ringOpt := quickOpts()
	ringOpt.Collective = "ring"
	if norm := ringOpt.Normalized(); norm.Collective != "" {
		t.Fatalf("Normalized kept %q, want empty (the canonical default)", norm.Collective)
	}

	base := baseConfig(w, "all-reduce", quickOpts().Normalized())
	ringCfg := base
	ringCfg.Collective = "ring"
	if base.Fingerprint() != ringCfg.Fingerprint() {
		t.Fatal("\"\" and \"ring\" split the fingerprint — existing cache keys broken")
	}
	treeCfg := base
	treeCfg.Collective = "tree"
	if base.Fingerprint() == treeCfg.Fingerprint() {
		t.Fatal("tree shares the ring fingerprint — cache would serve a wrong clock")
	}
}
