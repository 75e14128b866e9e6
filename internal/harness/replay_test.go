package harness

import (
	"strings"
	"testing"

	"pactrain/internal/audit"
	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
	"pactrain/internal/obs"
	"pactrain/internal/simclock"
)

// noopVisitor observes nothing; its presence forces core.Replay onto the
// full-world view even for homogeneous ranks.
type noopVisitor struct{}

func (noopVisitor) StartIter(int, []simclock.IterSchedule)         {}
func (noopVisitor) Op(int, core.CommOp, float64, float64, float64) {}

// edgeSink stands in for *obs.RunTrace under the span visitor and keeps
// rank 0's latest compute or collective edge of every iteration, in
// simulated seconds.
type edgeSink struct{ end []float64 }

func (s *edgeSink) Compute(rank, iter int, start, fwd, bwd float64) {
	if rank == 0 {
		s.end = append(s.end, simclock.NewIterSchedule(start, fwd, bwd, nil).ComputeDone())
	}
}
func (s *edgeSink) Collective(rank, _, iter int, _ string, _, end float64, _ map[string]any) {
	if rank == 0 && end > s.end[iter] {
		s.end[iter] = end
	}
}
func (s *edgeSink) BarrierWait(int, int, int, float64, float64)             {}
func (s *edgeSink) Decision(int, int, int, float64, string, map[string]any) {}

// TestReplayMatchesTrainingEveryConsumer is the replay invariant, stated
// once over every consumer: a recorded log plus its config reproduce the
// trainer's clock bit for bit. For each row the trainer's SimSeconds and
// every curve point's SimTime equal core.Replay's clock, which equals the
// span visitor's per-iteration edges and the audit's replayed end; and the
// one-rank view a homogeneous nil-visitor replay takes equals the
// full-world view a visitor forces. The ragged rows (a 20-sample shard cut
// into 8+8+4) are where re-costing and the trace used to drift by pricing
// every iteration at the full batch.
func TestReplayMatchesTrainingEveryConsumer(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	const world = 4
	hets := []struct {
		name string
		rc   ddp.RankCompute
	}{
		{"homogeneous", ddp.RankCompute{}},
		{"slow-rank", ddp.RankCompute{Multipliers: netsim.OneSlowRank(world, 2)}},
		{"jitter", ddp.RankCompute{JitterFrac: 0.1, JitterSeed: 11}},
	}
	shards := []struct {
		name    string
		samples int
	}{{"even", 96}, {"ragged", 80}}
	for _, overlap := range ddp.OverlapNames() {
		for _, het := range hets {
			for _, shard := range shards {
				for _, coll := range []string{"ring", "hierarchical"} {
					for _, scheme := range []string{"all-reduce", "topk-0.1", "pactrain-ternary", core.SchemeAdaptive} {
						cfg := core.DefaultConfig("MLP", scheme)
						cfg.World = world
						cfg.Data = data.CIFAR10Like(shard.samples, 5)
						cfg.TestSamples = 40
						cfg.Epochs = 3
						cfg.BatchSize = 8
						cfg.EvalEvery = 2
						cfg.BucketBytes = 1 << 14
						cfg.BottleneckBps = 100 * netsim.Mbps
						cfg.Overlap = ddp.MustOverlap(overlap)
						cfg.RankCompute = het.rc
						cfg.Collective = coll
						t.Run(strings.Join([]string{overlap, het.name, shard.name, coll, scheme}, "/"), func(t *testing.T) {
							t.Parallel()
							checkReplayConsumers(t, cfg)
						})
					}
				}
			}
		}
	}
}

func checkReplayConsumers(t *testing.T, cfg core.Config) {
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := res.CommLog
	if got, want := len(log.Iters), cfg.Epochs*len(cfg.EpochBatches()); got != want {
		t.Fatalf("recorded %d iterations, EpochBatches %v × %d epochs predicts %d",
			got, cfg.EpochBatches(), cfg.Epochs, want)
	}

	// Re-costing: nil visitor, so homogeneous rows take the one-rank view.
	cum := recording{cfg, res}.price(point{})
	if got := cum[len(cum)-1]; got != res.SimSeconds {
		t.Fatalf("replayed end %v != trained SimSeconds %v (Δ %g)", got, res.SimSeconds, got-res.SimSeconds)
	}
	for _, p := range res.Curve.Points {
		if cum[p.Iter] != p.SimTime {
			t.Fatalf("replayed clock at iter %d = %v, trained %v", p.Iter, cum[p.Iter], p.SimTime)
		}
	}

	// The same replay with a visitor attached walks every rank.
	fabric := cfg.NewFabric()
	hosts := fabric.Topo.Hosts()[:cfg.World]
	alg := collective.MustAlgorithm(cfg.Collective)
	full := core.Replay(&cfg, log, newOpCoster(alg, fabric, hosts, false).cost, noopVisitor{})
	for k := range cum {
		if full[k] != cum[k] {
			t.Fatalf("iter %d: full-world view %v != nil-visitor view %v", k, full[k], cum[k])
		}
	}

	// Trace: the span visitor's edges, before the exporter's µs conversion.
	fabric = cfg.NewFabric()
	sink := &edgeSink{}
	core.Replay(&cfg, log, newOpCoster(alg, fabric, hosts, false).cost,
		&spanVisitor{run: sink, quoter: audit.NewQuoter(&cfg, fabric, log.BucketElems)})
	if len(sink.end) != len(log.Iters) {
		t.Fatalf("span visitor saw %d iterations of %d", len(sink.end), len(log.Iters))
	}
	for k, edge := range sink.end {
		if edge != cum[k+1] {
			t.Fatalf("iter %d: last span edge %v != replayed clock %v", k, edge, cum[k+1])
		}
	}

	// Audit: its own guard compares against SimSeconds; check the report too.
	rep, err := audit.Replay(cfg, res, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplayEndSec != res.SimSeconds {
		t.Fatalf("audit replay end %v != SimSeconds %v", rep.ReplayEndSec, res.SimSeconds)
	}
	if cfg.Scheme == core.SchemeAdaptive && rep.DecidedRounds == 0 {
		t.Fatal("adaptive run audited with an empty ledger")
	}
}

// TestReplayRejectsOverlapWithoutBucketGeometry pins the one hostile-input
// outcome: a log recorded before the per-rank timeline (no BucketElems)
// cannot place per-bucket ready times, so replaying it under overlap is an
// error from the two entry points that accept logs of any provenance. The
// kernel itself panics (core.TestReplayPanicsOnUnreplayableLog); the engine
// never serves such a log to the re-cost paths.
func TestReplayRejectsOverlapWithoutBucketGeometry(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig("MLP", "all-reduce")
	cfg.World = 4
	cfg.Overlap = ddp.OverlapBackward
	res := &core.Result{CommLog: &core.CommLog{Iters: [][]core.CommOp{{
		{Kind: core.OpAllReduce, Elements: 1000, Wire: collective.WireFP32},
	}}}}
	if _, err := audit.Replay(cfg, res, audit.Options{}); err == nil || !strings.Contains(err.Error(), "bucket geometry") {
		t.Fatalf("audit.Replay error = %v, want the bucket-geometry rejection", err)
	}
	tr := obs.NewTracer()
	if err := TraceRun(tr, "pre-timeline", cfg, res); err == nil || !strings.Contains(err.Error(), "bucket geometry") {
		t.Fatalf("TraceRun error = %v, want the bucket-geometry rejection", err)
	}
	if tr.Runs() != 0 {
		t.Fatalf("rejected run left %d span sets behind", tr.Runs())
	}
	// The serialized clock needs no geometry: the same log traces fine.
	cfg.Overlap = ddp.OverlapNone
	if err := TraceRun(tr, "pre-timeline", cfg, res); err != nil {
		t.Fatal(err)
	}
	if _, err := audit.Replay(cfg, res, audit.Options{}); err == nil || !strings.Contains(err.Error(), "SimSeconds") {
		t.Fatalf("audit of a fabricated log = %v, want the SimSeconds guard", err)
	}
}
