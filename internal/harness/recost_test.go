package harness

import (
	"math"
	"testing"

	"pactrain/internal/core"
	"pactrain/internal/netsim"
)

// TestRecostReproducesTraining is the exactness contract the whole
// train-once/re-cost economy rests on: rebuilding a recorded run's clock on
// a fabric identical to the training fabric must reproduce the recorded
// SimSeconds and every curve point's SimTime bit-for-bit, because training
// prices collectives with the same cost functions at the same absolute
// times.
func TestRecostReproducesTraining(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	w := QuickWorkloads()[0]
	for _, scheme := range []string{"all-reduce", "pactrain-ternary", "topk-0.1", "omnireduce"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			cfg := baseConfig(w, scheme, opt)
			res, err := testEngine.Run(trainJob("recost-test", w, scheme, opt))
			if err != nil {
				t.Fatal(err)
			}
			topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: cfg.BottleneckBps})
			cum := recostCum(res, &cfg, netsim.NewFabric(topo))
			if got := cum[len(cum)-1]; got != res.SimSeconds {
				t.Fatalf("re-costed end time %v != recorded SimSeconds %v (Δ %g)",
					got, res.SimSeconds, got-res.SimSeconds)
			}
			for _, p := range res.Curve.Points {
				if cum[p.Iter] != p.SimTime {
					t.Fatalf("re-costed time at iter %d = %v, recorded %v",
						p.Iter, cum[p.Iter], p.SimTime)
				}
			}
			// And the TTA read off the rebuilt clock matches the recorded one.
			wantTTA, wantReached := res.Curve.TTA(cfg.TargetAcc)
			gotTTA, gotReached := ttaFromCum(res, cum, cfg.TargetAcc)
			if gotTTA != wantTTA || gotReached != wantReached {
				t.Fatalf("re-costed TTA (%v,%v) != recorded (%v,%v)",
					gotTTA, gotReached, wantTTA, wantReached)
			}
		})
	}
}

// TestRecostExactForOddSampleCounts guards baseConfig's chunk padding: a
// sample count that does not divide into World×BatchSize chunks is rounded
// up, so odd -samples values keep the fingerprints and reports they have
// always had. Re-costing exactness no longer rests on it — core.Replay
// prices a ragged final batch at its real size
// (TestReplayMatchesTrainingEveryConsumer's ragged rows).
func TestRecostExactForOddSampleCounts(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.Samples = 100 // 100/(4 workers × batch 8) does not divide; padded to 128
	opt.defaults()
	w := QuickWorkloads()[0]
	cfg := baseConfig(w, "fp16", opt)
	if shard := cfg.Data.Samples / cfg.World; shard%cfg.BatchSize != 0 {
		t.Fatalf("shard size %d not a multiple of batch %d", shard, cfg.BatchSize)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: cfg.BottleneckBps})
	cum := recostCum(res, &cfg, netsim.NewFabric(topo))
	if got := cum[len(cum)-1]; got != res.SimSeconds {
		t.Fatalf("re-costed end time %v != recorded SimSeconds %v (Δ %g)",
			got, res.SimSeconds, got-res.SimSeconds)
	}
}

// TestRecostReproducesTrainingWithTraces extends the exactness contract to
// traced fabrics: a run trained under oscillating bottleneck bandwidth is
// reproduced exactly by re-costing the equivalent untraced run on a traced
// fabric, which is what lets RunAblationVarBW skip three trainings.
func TestRecostReproducesTrainingWithTraces(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	w := QuickWorkloads()[0]
	cfg := baseConfig(w, "pactrain-ternary", opt)
	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: cfg.BottleneckBps})
	var traces []*netsim.BandwidthTrace
	for _, li := range topo.InterSwitchLinks() {
		traces = append(traces, &netsim.BandwidthTrace{LinkIndex: li, Segments: []netsim.TraceSegment{
			{UntilSec: 2, Scale: 1},
			{UntilSec: 4, Scale: 0.1},
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

	untraced, err := testEngine.Run(trainJob("recost-test", w, "pactrain-ternary", opt))
	if err != nil {
		t.Fatal(err)
	}
	fabric := netsim.NewFabric(netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: cfg.BottleneckBps}))
	for _, tr := range traces {
		fabric.SetTrace(tr)
	}
	cum := recostCum(untraced, &cfg, fabric)
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
}
