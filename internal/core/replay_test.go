package core

import (
	"math"
	"reflect"
	"testing"

	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
	"pactrain/internal/simclock"
)

// unitCompute prices forward at one second per sample and backward at two.
var unitCompute = ddp.ComputeModel{FLOPsPerSample: 1, DeviceFLOPS: 1, Efficiency: 1, BackwardFactor: 2}

// noopVisitor forces Replay onto the full-world view.
type noopVisitor struct{}

func (noopVisitor) StartIter(int, []simclock.IterSchedule)    {}
func (noopVisitor) Op(int, CommOp, float64, float64, float64) {}

// TestReplayHandComputed walks two small iterations by hand: per-bucket
// overlap with ready times [3, 4, 6], an in-order stream that makes bucket
// 1 wait on bucket 0's collective while bucket 2 waits on its own gradient,
// and then a 1.5× straggler holding every barrier.
func TestReplayHandComputed(t *testing.T) {
	t.Parallel()
	costs := []float64{2, 0.5, 1}
	price := func(op CommOp, _ float64) float64 { return costs[op.Bucket] }
	iter := []CommOp{{Bucket: 0}, {Bucket: 1}, {Bucket: 2}}
	log := &CommLog{BucketElems: []int{1, 1, 2}, Iters: [][]CommOp{iter, iter}}
	cfg := Config{World: 1, BatchSize: 2, Compute: unitCompute, Overlap: ddp.OverlapBackward}
	// fwd 2, bwd 4, ready = [3, 4, 6]. b0: launch 3, end 5; b1: launch
	// max(5, 4) = 5, end 5.5; b2: launch max(5.5, 6) = 6, end 7; floor 6.
	if got, want := Replay(&cfg, log, price, nil), []float64{0, 7, 14}; !reflect.DeepEqual(got, want) {
		t.Fatalf("one rank: cum = %v, want %v", got, want)
	}
	// Cheap communication hides under backward except for the last bucket,
	// which is ready only when backward completes.
	cheap := Replay(&cfg, log, func(CommOp, float64) float64 { return 0.01 }, nil)
	if want := 6 + 0.01; cheap[1] != want {
		t.Fatalf("hidden comm end %v, want floor + last bucket = %v", cheap[1], want)
	}
	// Without overlap every bucket waits for the full backward pass.
	serial := cfg
	serial.Overlap = ddp.OverlapNone
	if got, want := Replay(&serial, log, price, nil), []float64{0, 9.5, 19}; !reflect.DeepEqual(got, want) {
		t.Fatalf("serialized: cum = %v, want %v", got, want)
	}
	// Rank 1 at 1.5×: fwd 3, bwd 6, ready = [4.5, 6, 9] — it holds every
	// barrier. b0: 4.5 → 6.5; b1: max(6.5, 6) → 7; b2: 9 → 10.
	cfg.World = 2
	cfg.RankCompute = ddp.RankCompute{Multipliers: []float64{1, 1.5}}
	rec := &launchRecorder{}
	if got, want := Replay(&cfg, log, price, rec), []float64{0, 10, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("straggler: cum = %v, want %v", got, want)
	}
	if want := []float64{4.5, 6.5, 9, 14.5, 16.5, 19}; !reflect.DeepEqual(rec.launches, want) {
		t.Fatalf("straggler launches = %v, want %v", rec.launches, want)
	}
	if rec.ranks != 2 {
		t.Fatalf("visitor saw %d schedules, want one per rank", rec.ranks)
	}
}

type launchRecorder struct {
	launches []float64
	ranks    int
}

func (r *launchRecorder) StartIter(_ int, scheds []simclock.IterSchedule) { r.ranks = len(scheds) }
func (r *launchRecorder) Op(_ int, _ CommOp, _, launch, _ float64) {
	r.launches = append(r.launches, launch)
}

// TestReplayPricesRaggedBatchAtItsSize pins the ragged-batch rule on the
// kernel alone: a 5-sample shard at batch 2 runs 2+2+1, and the third
// iteration of every epoch is priced at one sample.
func TestReplayPricesRaggedBatchAtItsSize(t *testing.T) {
	t.Parallel()
	cfg := Config{World: 2, BatchSize: 2, Compute: unitCompute, Data: data.Config{Samples: 9}}
	if got, want := cfg.EpochBatches(), []int{2, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("EpochBatches = %v, want %v", got, want)
	}
	log := &CommLog{Iters: make([][]CommOp, 5)} // one epoch and a partial one
	got := Replay(&cfg, log, nil, nil)
	if want := []float64{0, 6, 12, 15, 21, 27}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cum = %v, want %v", got, want)
	}
}

// TestEpochBatchesMatchesTheSampler checks the geometry against the real
// thing: the sizes data.Shard.Batches yields on every rank of a dataset
// padded the way Run pads it.
func TestEpochBatchesMatchesTheSampler(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ samples, world, batch int }{
		{80, 4, 8}, {96, 4, 8}, {81, 4, 8}, {7, 8, 3}, {64, 1, 64}, {65, 1, 64}, {30, 3, 16},
	} {
		cfg := Config{World: tc.world, BatchSize: tc.batch, Data: data.CIFAR10Like(tc.samples, 1)}
		padded := cfg.Data
		padded.Samples = cfg.shardSamples() * cfg.World
		ds := data.Generate(padded)
		for rank := 0; rank < tc.world; rank++ {
			var sizes []int
			next := data.ShardDataset(ds, rank, tc.world).Batches(tc.batch, nil)
			for _, labels, ok := next(); ok; _, labels, ok = next() {
				sizes = append(sizes, len(labels))
			}
			if got := cfg.EpochBatches(); !reflect.DeepEqual(got, sizes) {
				t.Fatalf("%+v rank %d: EpochBatches = %v, sampler yields %v", tc, rank, got, sizes)
			}
		}
	}
	if got := (&Config{World: 4, BatchSize: 8}).EpochBatches(); got != nil {
		t.Fatalf("unknown sample count: EpochBatches = %v, want nil (every batch full)", got)
	}
}

// TestReplayPanicsOnUnreplayableLog pins the kernel's side of the one
// hostile-input decision: per-bucket overlap over a log without bucket
// geometry is the error Replayable reports, and Replay panics with it.
func TestReplayPanicsOnUnreplayableLog(t *testing.T) {
	t.Parallel()
	cfg := Config{World: 2, BatchSize: 2, Compute: unitCompute, Overlap: ddp.OverlapBackward}
	log := &CommLog{Iters: [][]CommOp{{{Bucket: 0}}}}
	if err := log.Replayable(&cfg); err == nil {
		t.Fatal("Replayable accepted an overlap replay without bucket geometry")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Replay must panic on a log Replayable rejects")
		}
	}()
	Replay(&cfg, log, func(CommOp, float64) float64 { return 1 }, nil)
}

// naiveReplay is the reference walk: every op's barrier is a fresh
// Timeline.LaunchTime scan over all ranks — O(world × ops), no composer, no
// one-rank view.
func naiveReplay(cfg *Config, log *CommLog, price PriceFunc) []float64 {
	var prefix []float64
	if cfg.Overlap == ddp.OverlapBackward {
		prefix = simclock.PrefixShares(log.BucketElems)
	}
	shard := 0
	if cfg.Data.Samples > 0 {
		shard = (cfg.Data.Samples + cfg.World - 1) / cfg.World
	}
	tl := simclock.NewTimeline(cfg.World)
	scheds := make([]simclock.IterSchedule, cfg.World)
	cum := make([]float64, len(log.Iters)+1)
	left := shard
	for k, ops := range log.Iters {
		batch := cfg.BatchSize
		if shard > 0 {
			if left == 0 {
				left = shard // next epoch
			}
			batch = min(batch, left)
			left -= batch
		}
		for r := range scheds {
			scale := cfg.RankCompute.Scale(r, k)
			scheds[r] = simclock.NewIterSchedule(tl.Clock(r),
				cfg.Compute.ForwardSeconds(batch)*scale, cfg.Compute.BackwardSeconds(batch)*scale, prefix)
		}
		end := math.Inf(-1)
		for _, op := range ops {
			launch := tl.LaunchTime(func(r int) float64 { return scheds[r].ReadyAt(op.Bucket) })
			launch = math.Max(launch, end)
			end = launch + price(op, launch)
		}
		for r := range scheds {
			tl.Set(r, scheds[r].Finish(end))
		}
		cum[k+1] = tl.Clock(0)
	}
	return cum
}

// fuzzReplayCase decodes fuzz input into a replay problem. world is 1–64
// (worldB's low six bits); worldB's bit 6 replaces the multipliers with a
// slow rack, a block of ranks sharing one multiplier. flags: bit 0
// per-bucket overlap; bits 1–2 the multipliers (none, all
// ones, one slow rank, a ramp); bit 3 jitter; bit 4 a launch-dependent
// price; bits 5–7 the batch size. samples is the dataset size (0 = unknown,
// every batch full). data: one byte of bucket count, that many bucket
// sizes, then one byte per op (its bucket and price class) with 0xFF
// opening a new iteration — so buckets repeat and arrive out of order, and
// iterations may be empty.
func fuzzReplayCase(worldB, flags uint8, samples uint16, raw []byte) (Config, *CommLog, PriceFunc) {
	world := 1 + int(worldB)%64
	cfg := Config{
		World:     world,
		BatchSize: 1 + 3*int(flags>>5),
		Compute:   ddp.ComputeModel{FLOPsPerSample: 1e9, DeviceFLOPS: 1e12, Efficiency: 0.5, BackwardFactor: 2},
		Data:      data.Config{Samples: int(samples) % 512},
	}
	if flags&1 != 0 {
		cfg.Overlap = ddp.OverlapBackward
	}
	switch flags >> 1 & 3 {
	case 1:
		cfg.RankCompute.Multipliers = netsim.OneSlowRank(world, 1)
	case 2:
		cfg.RankCompute.Multipliers = netsim.OneSlowRank(world, 2.5)
	case 3:
		cfg.RankCompute.Multipliers = netsim.RampRanks(world, 3)
	}
	if worldB&0x40 != 0 {
		// The last rack of world/hosts racks of hosts ranks; ranks past the
		// racks run at 1.0 after it.
		hosts := max(world/4, 1)
		cfg.RankCompute.Multipliers = netsim.OneSlowRack(world/hosts, hosts, 2.5)
	}
	if flags&8 != 0 {
		cfg.RankCompute.JitterFrac, cfg.RankCompute.JitterSeed = 0.2, uint64(samples)
	}
	nb := 1
	if len(raw) > 0 {
		nb, raw = 1+int(raw[0])%8, raw[1:]
	}
	log := &CommLog{BucketElems: make([]int, nb)}
	for i := range log.BucketElems {
		if len(raw) > 0 {
			log.BucketElems[i], raw = int(raw[0]), raw[1:]
		}
	}
	for _, b := range raw {
		if b == 0xFF {
			log.StartIter()
			continue
		}
		log.Record(CommOp{Bucket: int(b) % nb, Elements: int(b)})
	}
	price := func(op CommOp, launch float64) float64 {
		cost := 1e-3 * float64(1+op.Elements%7)
		if flags&16 != 0 {
			cost *= 1.5 + math.Sin(40*launch)
		}
		return cost
	}
	return cfg, log, price
}

// FuzzReplayMatchesNaive checks the kernel against the naive walk on any
// world, bucket geometry, op sequence, straggler profile, overlap mode and
// pricing function, and the view with one schedule per rank class (no
// visitor) against the full-world view. The seed corpus under testdata holds the named
// edges: an empty log, empty iterations, a log that stops mid-epoch,
// all-ones multipliers, out-of-order buckets at 64 ranks, a slow rack at 64
// ranks.
func FuzzReplayMatchesNaive(f *testing.F) {
	f.Add(uint8(7), uint8(0b0010_0101), uint16(80), []byte{3, 10, 10, 20, 0, 1, 2, 0xFF, 2, 2, 0, 1})
	f.Add(uint8(0), uint8(0), uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, worldB, flags uint8, samples uint16, raw []byte) {
		cfg, log, price := fuzzReplayCase(worldB, flags, samples, raw)
		want := naiveReplay(&cfg, log, price)
		got := Replay(&cfg, log, price, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("world %d, %d iters: kernel %v, naive walk %v", cfg.World, len(log.Iters), got, want)
		}
		if full := Replay(&cfg, log, price, noopVisitor{}); !reflect.DeepEqual(full, got) {
			t.Fatalf("world %d: full-world view %v, nil-visitor view %v", cfg.World, full, got)
		}
	})
}
