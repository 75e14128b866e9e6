package harness

import (
	"math"
	"strings"
	"testing"

	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
	"pactrain/internal/simclock"
)

// stragglerTrainConfig builds a config that trains with every timeline
// feature on: edge-grade compute, a 2× one-slow-rank straggler, jitter, and
// per-bucket overlap, on the Fig. 4 fabric at 100 Mbps.
func stragglerTrainConfig(w Workload, scheme string, opt Options) core.Config {
	cfg := baseConfig(w, scheme, opt)
	cfg.Compute = StragglerComputeModel(cfg.Profile.FLOPsPerSample)
	cfg.Topology = netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: stragglerBandwidth})
	cfg.BottleneckBps = stragglerBandwidth
	cfg.Overlap = ddp.OverlapBackward
	cfg.RankCompute = ddp.RankCompute{
		Multipliers: netsim.OneSlowRank(opt.World, 2.0),
		JitterFrac:  0.1,
		JitterSeed:  11,
	}
	return cfg
}

// TestStragglerRecostReproducesTraining extends the exactness contract to
// per-rank logs: a run trained with heterogeneous rank clocks (straggler
// multipliers plus jitter) and per-bucket backward overlap must be
// reproduced bit-for-bit — SimSeconds and every curve point — by the
// replay on an identical fabric, because training and core.Replay evaluate
// the same simclock expressions at the same absolute times.
func TestStragglerRecostReproducesTraining(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	w := QuickWorkloads()[0]
	for _, scheme := range []string{"all-reduce", "pactrain-ternary"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			cfg := stragglerTrainConfig(w, scheme, opt)
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cum := recording{cfg, res}.price(point{})
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
		})
	}
}

// TestStragglerRecostCrossProfile is the train-once economy extended across
// straggler profiles: a log recorded on the uniform serialized
// configuration, re-costed under a straggler-and-overlap config, must
// reproduce a real training under that config bit-for-bit — the recorded op
// sequence depends only on gradient values, never on clocks, so one
// recording prices every cell of the straggler grid (this is what lets
// RunStragglers share its trainings with Fig. 3).
func TestStragglerRecostCrossProfile(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	w := QuickWorkloads()[0]

	straggler := stragglerTrainConfig(w, "pactrain-ternary", opt)
	trained, err := core.Run(straggler)
	if err != nil {
		t.Fatal(err)
	}

	uniform, err := testEngine.Run(trainJobs("straggler-cross", w, opt, "pactrain-ternary")[0])
	if err != nil {
		t.Fatal(err)
	}
	// The uniform log under the straggler config, on its Fig. 4 fabric.
	cum := recording{straggler, uniform}.price(point{})
	if got := cum[len(cum)-1]; got != trained.SimSeconds {
		t.Fatalf("uniform log re-costed under straggler profile = %v, straggler training recorded %v (Δ %g)",
			got, trained.SimSeconds, got-trained.SimSeconds)
	}
	for _, p := range trained.Curve.Points {
		if cum[p.Iter] != p.SimTime {
			t.Fatalf("re-costed time at iter %d = %v, straggler training recorded %v",
				p.Iter, cum[p.Iter], p.SimTime)
		}
	}
}

// TestStragglerRecostMatchesRecordedLaunches cross-checks the two views of
// a per-rank log: the re-coster *derives* every op's launch from the config
// (so it can re-price under other profiles), while training *recorded* the
// synchronized launch each op actually started at. Replaying the ops at
// their recorded launch times must land on the same final clock.
func TestStragglerRecostMatchesRecordedLaunches(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	w := QuickWorkloads()[0]
	cfg := stragglerTrainConfig(w, "all-reduce", opt)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: stragglerBandwidth})
	fabric := netsim.NewFabric(topo)
	hosts := topo.Hosts()[:cfg.World]
	pricer := collective.NewPricer(collective.MustAlgorithm(cfg.Collective), fabric, hosts)
	prefix := simclock.PrefixShares(res.CommLog.BucketElems)
	fwd := cfg.Compute.ForwardSeconds(cfg.BatchSize)
	bwd := cfg.Compute.BackwardSeconds(cfg.BatchSize)

	// Rank 0's clock, advanced with recorded launches instead of derived
	// ones.
	t0 := 0.0
	for k, ops := range res.CommLog.Iters {
		s := cfg.RankCompute.Scale(0, k)
		sched := simclock.NewIterSchedule(t0, fwd*s, bwd*s, prefix)
		commEnd := math.Inf(-1)
		for _, op := range ops {
			if op.LaunchAt < commEnd {
				t.Fatalf("iter %d: recorded launch %v before previous op end %v", k, op.LaunchAt, commEnd)
			}
			commEnd = op.LaunchAt + core.CostOp(op, pricer, op.LaunchAt)
		}
		t0 = sched.Finish(commEnd)
	}
	if t0 != res.SimSeconds {
		t.Fatalf("recorded-launch replay = %v, training recorded %v (Δ %g)",
			t0, res.SimSeconds, t0-res.SimSeconds)
	}
}

// TestRunStragglersQuick runs the experiment grid and asserts its headline:
// under a 2× one-slow-rank straggler at 100 Mbps, PacTrain's degraded TTA
// stays strictly below dense-fp32's — the compression advantage survives
// compute heterogeneity in both overlap modes.
func TestRunStragglersQuick(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	res, err := RunStragglers(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(res.Schemes) * len(res.Overlaps) * len(res.Severities)
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}
	for _, overlap := range res.Overlaps {
		// Acceptance: PacTrain degrades strictly less than dense-fp32 under
		// the 2× straggler — its TTA under heterogeneity stays strictly
		// below the dense baseline's.
		pac, ok1 := res.Cell("pactrain-ternary", overlap, 2)
		dense, ok2 := res.Cell("all-reduce", overlap, 2)
		if !ok1 || !ok2 {
			t.Fatalf("missing 2× cells for overlap=%s", overlap)
		}
		if pac.TTASeconds >= dense.TTASeconds {
			t.Fatalf("overlap=%s: PacTrain TTA %v must stay strictly below dense %v under the 2× straggler",
				overlap, pac.TTASeconds, dense.TTASeconds)
		}
		// A straggler can only slow a run: TTA grows strictly with severity.
		for _, scheme := range res.Schemes {
			prev := 0.0
			for _, sev := range res.Severities {
				c, ok := res.Cell(scheme, overlap, sev)
				if !ok {
					t.Fatalf("missing cell %s/%s/%v", scheme, overlap, sev)
				}
				if c.TTASeconds <= prev {
					t.Fatalf("%s overlap=%s: TTA %v at %g× not above %v",
						scheme, overlap, c.TTASeconds, sev, prev)
				}
				if c.Degradation < 1 {
					t.Fatalf("%s overlap=%s %g×: degradation %v < 1", scheme, overlap, sev, c.Degradation)
				}
				prev = c.TTASeconds
			}
		}
	}
	// Overlap can only help: each scheme's 2× cell is no worse overlapped.
	for _, scheme := range res.Schemes {
		serial, _ := res.Cell(scheme, "none", 2)
		overlapped, _ := res.Cell(scheme, "backward", 2)
		if overlapped.TTASeconds > serial.TTASeconds {
			t.Fatalf("%s: overlap worsened the 2× straggler TTA (%v > %v)",
				scheme, overlapped.TTASeconds, serial.TTASeconds)
		}
	}
	out := res.Render()
	for _, want := range []string{"Stragglers", "PacTrain", "overlap=backward", "100 Mbps"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkStragglersGrid regenerates the straggler experiment at reduced
// scale, keeping heterogeneous replay on the bench-smoke radar alongside
// the other experiment benchmarks (bench_test.go).
func BenchmarkStragglersGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunStragglers(Options{Quick: true, World: 4, Samples: 256, Seed: 2, Engine: testEngine})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) == 0 {
			b.Fatal("empty grid")
		}
	}
}
