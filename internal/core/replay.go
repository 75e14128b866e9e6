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
// (DESIGN.md §5):
//
//	launch = max(bucket barrier over the ranks' ready times, previous op's end)
//	end    = launch + price(op, launch)
//	clock  = max(the rank's compute floor, the last op's end)
//
// with each rank's compute priced at the iteration's real mini-batch size
// (EpochBatches) times its RankCompute.Scale. These are the expressions the
// trainer evaluates live, in the same operand order, so for any pricing
// function that reproduces the trainer's costs the result equals the
// trainer's clock bit for bit; launches are derived from cfg, never read
// from the recorded LaunchAt, so a log re-prices under any fabric, straggler
// profile and overlap mode its recording is insensitive to.
//
// When the ranks are homogeneous and no visitor needs per-rank views, one
// schedule stands for all of them (a max over equal floats is that float);
// the result is identical to the full-world walk.
//
// Replay panics on a log Replayable rejects. Logs the engine serves have
// passed the same check (entryCurrent); callers holding logs of other
// provenance call Replayable first.
func Replay(cfg *Config, log *CommLog, price PriceFunc, v ReplayVisitor) []float64 {
	if err := log.Replayable(cfg); err != nil {
		panic(err)
	}
	var prefix []float64
	if cfg.Overlap == ddp.OverlapBackward {
		prefix = simclock.PrefixShares(log.BucketElems)
	}
	batches := cfg.EpochBatches()
	ranks := cfg.World
	if v == nil && !cfg.RankCompute.Enabled() {
		ranks = 1
	}
	tl := simclock.NewTimeline(ranks)
	scheds := make([]simclock.IterSchedule, ranks)
	comp := simclock.NewIterComposer(scheds)
	cum := make([]float64, len(log.Iters)+1)
	for k, ops := range log.Iters {
		batch := cfg.BatchSize
		if len(batches) > 0 {
			batch = batches[k%len(batches)]
		}
		fwd, bwd := cfg.Compute.ForwardSeconds(batch), cfg.Compute.BackwardSeconds(batch)
		for r := range scheds {
			scale := cfg.RankCompute.Scale(r, k)
			scheds[r] = simclock.NewIterSchedule(tl.Clock(r), fwd*scale, bwd*scale, prefix)
		}
		comp.Reset()
		if v != nil {
			v.StartIter(k, scheds)
		}
		commEnd := math.Inf(-1)
		for _, op := range ops {
			launch := comp.Barrier(op.Bucket)
			if commEnd > launch {
				// One in-order communication stream: an op never launches
				// before the previous one completed.
				launch = commEnd
			}
			cost := price(op, launch)
			if v != nil {
				v.Op(k, op, commEnd, launch, cost)
			}
			commEnd = launch + cost
		}
		comp.FinishInto(tl, commEnd)
		cum[k+1] = tl.Clock(0)
	}
	return cum
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
