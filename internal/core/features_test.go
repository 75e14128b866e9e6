package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"pactrain/internal/collective"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
)

func TestOverlapBackwardNoSlowerThanSerial(t *testing.T) {
	mk := func(overlap ddp.Overlap) *Result {
		cfg := tinyConfig("all-reduce")
		cfg.Overlap = overlap
		cfg.Epochs = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := mk(ddp.OverlapNone)
	overlapped := mk(ddp.OverlapBackward)
	if overlapped.SimSeconds > serial.SimSeconds {
		t.Fatalf("overlap (%v) must not be slower than serial (%v)",
			overlapped.SimSeconds, serial.SimSeconds)
	}
	// Convergence must be identical — overlap only changes the clock.
	if overlapped.FinalAcc != serial.FinalAcc {
		t.Fatalf("overlap changed convergence: %v vs %v",
			overlapped.FinalAcc, serial.FinalAcc)
	}
}

func TestBandwidthTraceSlowsRun(t *testing.T) {
	base := tinyConfig("all-reduce")
	base.Epochs = 2
	topoA := netsim.FlatTopology(4, netsim.Gbps, 1e-5)
	base.Topology = topoA
	resA, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := tinyConfig("all-reduce")
	cfg.Epochs = 2
	topoB := netsim.FlatTopology(4, netsim.Gbps, 1e-5)
	cfg.Topology = topoB
	// Throttle every link to 10% for the whole run.
	for li := range topoB.Links {
		cfg.Traces = append(cfg.Traces, &netsim.BandwidthTrace{
			LinkIndex: li,
			Segments:  []netsim.TraceSegment{{UntilSec: math.Inf(1), Scale: 0.1}},
		})
	}
	resB, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Stats.SimSeconds <= resA.Stats.SimSeconds*5 {
		t.Fatalf("10%% bandwidth should ≈10× comm time: traced %v vs base %v",
			resB.Stats.SimSeconds, resA.Stats.SimSeconds)
	}
	// Convergence unchanged — traces affect the clock only.
	if resB.FinalAcc != resA.FinalAcc {
		t.Fatal("bandwidth trace must not change convergence")
	}
}

func TestPSSchemeSlowerThanAllReduce(t *testing.T) {
	mk := func(scheme string) *Result {
		cfg := tinyConfig(scheme)
		cfg.World = 8
		cfg.Topology = netsim.FlatTopology(8, netsim.Gbps, 1e-5)
		cfg.Epochs = 1
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ar := mk("all-reduce")
	ps := mk("ps")
	if ps.Stats.SimSeconds <= ar.Stats.SimSeconds {
		t.Fatalf("PS comm (%v) should exceed ring all-reduce (%v): incast",
			ps.Stats.SimSeconds, ar.Stats.SimSeconds)
	}
}

func TestCIFAR100LikeWorkload(t *testing.T) {
	cfg := tinyConfig("pactrain")
	// A harder 100-class-style task, reduced to 20 classes.
	cfg.Data = data.Config{Name: "cifar100-like", Classes: 20, Samples: 320,
		Channels: 3, Size: 16, Noise: 1.2, Prototypes: 4, Seed: 5}
	cfg.Lite.Classes = 20
	cfg.Epochs = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= 1.0/20 {
		t.Fatalf("20-class task: accuracy %v at chance level", res.FinalAcc)
	}
	for rank, cs := range res.WeightChecksums {
		if math.Abs(cs-res.WeightChecksums[0]) > 1e-6 {
			t.Fatalf("replica %d diverged on CIFAR-100-like task", rank)
		}
	}
}

func TestBitmapBroadcastRecordedAtMaskChange(t *testing.T) {
	cfg := tinyConfig("pactrain")
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bitmaps := 0
	for _, ops := range res.CommLog.Iters {
		for _, op := range ops {
			if op.Kind == OpBitmapBroadcast {
				bitmaps++
			}
		}
	}
	if bitmaps == 0 {
		t.Fatal("pruning must trigger at least one bitmap re-share")
	}
	// At most a handful: one per bucket per mask change, not per iteration.
	if bitmaps > res.Iterations {
		t.Fatalf("bitmap storms: %d broadcasts over %d iterations", bitmaps, res.Iterations)
	}
}

func TestPruneRatioZeroKeepsDenseBehaviour(t *testing.T) {
	cfg := tinyConfig("pactrain")
	cfg.PruneRatio = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An all-keep mask still stabilizes and compacts (compaction is then
	// the identity, costing full fp32) — accuracy must match plain
	// training closely.
	if res.MaskSparsity != 0 {
		t.Fatalf("ratio 0 produced sparsity %v", res.MaskSparsity)
	}
	if res.FinalAcc < 0.3 {
		t.Fatalf("ratio-0 PacTrain failed to learn: %v", res.FinalAcc)
	}
}

func TestHighPruneRatioHurtsAccuracy(t *testing.T) {
	run := func(ratio float64) float64 {
		cfg := tinyConfig("pactrain")
		cfg.PruneRatio = ratio
		cfg.Epochs = 4
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalAcc
	}
	moderate := run(0.5)
	extreme := run(0.99)
	if extreme >= moderate {
		t.Fatalf("99%% pruning (acc %v) should underperform 50%% (acc %v) — the Fig. 6 cliff",
			extreme, moderate)
	}
}

// TestOmniReduceRecordsEachRanksBlocks hand-builds a bucket whose third
// 256-block is all zero on rank 1 only, so rank 1 streams one block fewer than
// the union holds. The op rank 0 records must carry each rank's own count,
// and every rank must end where that op prices to.
func TestOmniReduceRecordsEachRanksBlocks(t *testing.T) {
	const world, blocks, size = 3, 4, 256
	log, stats := &CommLog{}, &Stats{}
	base := testEnv(world)
	ends := make([]float64, world)
	var wg sync.WaitGroup
	for rank := range world {
		env := base
		env.rank = rank
		if rank == 0 {
			env.log, env.stats = log, stats
		}
		b := &ddp.Bucket{Flat: make([]float32, blocks*size)}
		for blk := range blocks {
			if rank != 1 || blk != 2 {
				b.Flat[blk*size+rank] = 1
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ends[rank] = (&omniReduceHook{env: &env, blockSize: size}).Sync(b, 0)
		}()
	}
	wg.Wait()
	op := log.Iters[0][0]
	if !slices.Equal(op.Blocks, []int{4, 3, 4}) || op.Union != 4 {
		t.Fatalf("recorded blocks %v, union %d; want [4 3 4], 4", op.Blocks, op.Union)
	}
	want := CostOp(op, base.pricer, 0)
	for rank, end := range ends {
		if end != want {
			t.Errorf("rank %d ended at %v, the recorded op prices to %v", rank, end, want)
		}
	}
	if stats.PSOps != 1 || stats.SimSeconds != want {
		t.Errorf("stats %+v, want one PS op of %v s", stats, want)
	}
}

// testEnv is a world-rank hookEnv over a flat 1 Gbps fabric, priced by the
// ring; callers set the rank, and rank 0's log and stats.
func testEnv(world int) hookEnv {
	f := netsim.NewFabric(netsim.FlatTopology(world, netsim.Gbps, 1e-5))
	algo := collective.MustAlgorithm(collective.DefaultAlgorithm)
	return hookEnv{cluster: collective.NewCluster(world, f), world: world,
		pricer: collective.NewPricer(algo, f, f.Topo.Hosts()), algo: algo, fabric: f, hosts: f.Topo.Hosts()}
}

// TestStatsAccumulate commits an all-reduce and a bitmap broadcast through
// rank 0's hookEnv: each is recorded at its launch and counted once, and
// their bytes and durations add up.
func TestStatsAccumulate(t *testing.T) {
	env := testEnv(2)
	env.log, env.stats = &CommLog{}, &Stats{}
	mid := env.commit(CommOp{Kind: OpAllReduce, Elements: 3, Wire: collective.WireFP32}, 0)
	end := env.commit(CommOp{Kind: OpBitmapBroadcast, Elements: 3, Wire: collective.BitmapWire}, mid)
	st := *env.stats
	if st.AllReduceOps != 1 || st.BroadcastOps != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.PayloadBytes <= 0 || st.SimSeconds <= 0 || st.SimSeconds != mid+(end-mid) {
		t.Fatalf("stats should accumulate bytes and the ops' durations: %+v", st)
	}
	if ops := env.log.Iters[0]; len(ops) != 2 || ops[0].LaunchAt != 0 || ops[1].LaunchAt != mid {
		t.Fatalf("recorded ops %+v, want launches 0 and %v", ops, mid)
	}
}
