package core

import (
	"errors"
	"math"

	"pactrain/internal/ddp"
	"pactrain/internal/simclock"
)

// PriceFunc prices one recorded op launched at absolute time launch. It is
// one of the two things replay consumers legitimately differ in: the harness
// prices through its opCoster (live, or memoized for largescale), the audit
// through CostOp directly.
type PriceFunc func(op CommOp, launch float64) float64

// ReplayVisitor observes a replay without influencing it — the other thing
// consumers differ in: the trace exporter emits spans, the audit fills its
// ledger, re-costing passes nil and keeps only the clock.
type ReplayVisitor interface {
	// StartIter sees iteration k's schedules, one per rank, before its first
	// op launches. The slice is rewritten in place for the next iteration.
	StartIter(k int, scheds []simclock.IterSchedule)
	// Op sees one priced op: streamFree is the previous op's end on the
	// in-order communication stream (-Inf for an iteration's first op),
	// launch the instant the op started, cost its priced duration.
	Op(k int, op CommOp, streamFree, launch, cost float64)
}

// Replay walks a recorded log over per-rank timelines and returns rank 0's
// cumulative clock: cum[i] is the simulated time after i iterations. It is
// the one statement of the walk every derived number in this repo comes from
// (DESIGN.md §7):
//
//	launch = max(bucket barrier over the ranks' ready times, previous op's end)
//	end    = launch + price(op, launch)
//	clock  = max(the rank's compute floor, the last op's end)
//
// with each rank's compute priced at the iteration's real mini-batch size
// (EpochBatches) times its RankCompute.Scale. The trainer drives the same
// clockWalk live, so for any pricing function that reproduces the trainer's
// costs the result equals the trainer's clock bit for bit; launches are
// derived from cfg, never read from the recorded LaunchAt, so a log
// re-prices under any fabric, straggler profile and overlap mode its
// recording is insensitive to.
//
// Replay panics on a log Replayable rejects. Logs the engine serves have
// passed the same check (entryCurrent); callers holding logs of other
// provenance call Replayable first.
func Replay(cfg *Config, log *CommLog, price PriceFunc, v ReplayVisitor) []float64 {
	if err := log.Replayable(cfg); err != nil {
		panic(err)
	}
	w := newClockWalk(cfg, log.BucketElems, v != nil)
	cum := make([]float64, len(log.Iters)+1)
	for k, ops := range log.Iters {
		w.startIter(k)
		if v != nil {
			v.StartIter(k, w.scheds)
		}
		for _, op := range ops {
			launch := w.launch(op.Bucket)
			cost := price(op, launch)
			if v != nil {
				v.Op(k, op, w.free, launch, cost)
			}
			w.free = launch + cost
		}
		cum[k+1] = w.finish(0)
	}
	return cum
}

// clockWalk is that walk, driven by Replay over a log and by the trainer
// live: per-rank timelines, one iteration's schedules, their barrier
// composer and the communication stream's free time (the previous op's end,
// -Inf before an iteration's first op; the caller sets it). Compute is a pure
// function of (cfg, rank, iteration), so a live rank walks every rank's
// schedule itself and knows each bucket's barrier without communicating.
type clockWalk struct {
	cfg     *Config
	batches []int
	ranks   []int // the rank whose compute each schedule lays out
	prefix  []float64
	tl      *simclock.Timeline
	scheds  []simclock.IterSchedule
	comp    *simclock.IterComposer
	free    float64
}

// newClockWalk builds the walk over a model's bucket element counts. Unless
// perRank asks for every rank's clock, or jitter gives every rank its own
// compute, ranks of equal multiplier share one schedule, rank 0's first:
// they start at 0 and compute alike, so their clocks stay identical, and a
// barrier's max over a multiset of ready times is its max over the distinct
// ones.
func newClockWalk(cfg *Config, bucketElems []int, perRank bool) *clockWalk {
	w := &clockWalk{cfg: cfg, batches: cfg.EpochBatches()}
	if cfg.Overlap == ddp.OverlapBackward {
		w.prefix = simclock.PrefixShares(bucketElems)
	}
	if perRank || cfg.RankCompute.JitterFrac > 0 {
		w.ranks = make([]int, cfg.World)
		for r := range w.ranks {
			w.ranks[r] = r
		}
	} else {
		seen := make(map[uint64]bool)
		for r := range cfg.World {
			if bits := math.Float64bits(cfg.RankCompute.Scale(r, 0)); !seen[bits] {
				seen[bits] = true
				w.ranks = append(w.ranks, r)
			}
		}
	}
	w.tl = simclock.NewTimeline(len(w.ranks))
	w.scheds = make([]simclock.IterSchedule, len(w.ranks))
	w.comp = simclock.NewIterComposer(w.scheds)
	return w
}

// startIter lays out every schedule's compute for iteration k from its clock.
func (w *clockWalk) startIter(k int) {
	batch := w.cfg.BatchSize
	if len(w.batches) > 0 {
		batch = w.batches[k%len(w.batches)]
	}
	fwd, bwd := w.cfg.Compute.ForwardSeconds(batch), w.cfg.Compute.BackwardSeconds(batch)
	for i, r := range w.ranks {
		scale := w.cfg.RankCompute.Scale(r, k)
		w.scheds[i] = simclock.NewIterSchedule(w.tl.Clock(i), fwd*scale, bwd*scale, w.prefix)
	}
	w.comp.Reset()
	w.free = math.Inf(-1)
}

// launch returns when the next op, on bucket, starts: the bucket's barrier,
// or the stream's free time if that is later (one in-order communication
// stream never starts an op before the previous one completed).
func (w *clockWalk) launch(bucket int) float64 {
	launch := w.comp.Barrier(bucket)
	if w.free > launch {
		launch = w.free
	}
	return launch
}

// finish ends the iteration at the stream's free time and returns rank's
// clock.
func (w *clockWalk) finish(rank int) float64 {
	w.comp.FinishInto(w.tl, w.free)
	return w.tl.Clock(rank)
}

// Replayable reports whether the log can be replayed under cfg. The one
// thing a log can lack is bucket geometry: logs recorded before the per-rank
// timeline carry no BucketElems, and per-bucket overlap cannot place a
// bucket's ready time without them.
func (l *CommLog) Replayable(cfg *Config) error {
	if cfg.Overlap == ddp.OverlapBackward && len(l.BucketElems) == 0 {
		return errors.New("core: per-bucket overlap replay needs a log with bucket geometry (recorded pre-timeline?)")
	}
	return nil
}
