// Package simclock is the per-rank event-timeline core of the simulated
// cost plane. The original trainer advanced one scalar clock shared by all
// ranks, which cannot express the two scenarios where gradient compression
// matters most in practice: communication hidden under backward compute
// (DGC's motivating overlap argument) and heterogeneous or straggling
// workers. This package replaces the scalar with events on per-rank
// timelines:
//
//   - a Timeline holds one simulated clock per rank;
//   - an IterSchedule describes one rank's compute for one iteration —
//     forward, backward, and the per-bucket gradient ready times under
//     DDP's reverse-registration model (bucket i becomes ready once forward
//     plus its prefix share of backward has run);
//   - a collective's launch time is a barrier: the maximum of the
//     participants' ready times (LaunchTime), because a straggler holds the
//     whole ring;
//   - an IterComposer answers one iteration's barrier queries without
//     rescanning the ranks per op.
//
// One walk in internal/core (clockWalk) drives these types: core.Replay
// over a recorded log, and the trainer live. Compute is a pure function of
// the config, the rank and the iteration, so each trainer rank walks every
// rank's schedule itself and the barrier needs no communication. One walk
// for both is what makes replay bit-exact (DESIGN.md §5, §9).
package simclock

import "math"

// Timeline holds one simulated clock per rank, all starting at time zero.
type Timeline struct {
	clocks []float64
}

// NewTimeline builds a timeline for world ranks, all at time zero.
func NewTimeline(world int) *Timeline {
	return &Timeline{clocks: make([]float64, world)}
}

// Clock returns rank's current simulated time.
func (t *Timeline) Clock(rank int) float64 { return t.clocks[rank] }

// Set moves rank's clock to v.
func (t *Timeline) Set(rank int, v float64) { t.clocks[rank] = v }

// LaunchTime returns the synchronization barrier for a collective whose
// per-rank ready times are given by ready: the launch is the maximum ready
// time across ranks — no rank's bytes move before the slowest rank's
// gradient exists.
func (t *Timeline) LaunchTime(ready func(rank int) float64) float64 {
	launch := math.Inf(-1)
	for r := range t.clocks {
		if v := ready(r); v > launch {
			launch = v
		}
	}
	return launch
}

// PrefixShares converts DDP bucket element counts (in bucket order, which is
// reverse registration order) into cumulative backward shares: shares[i] is
// the fraction of backward compute that has run once bucket i's gradients
// exist. Backward produces gradients in reverse registration order — bucket
// 0 first — and each bucket's slice of backward is proportional to its
// element count, the same proxy DDP's bucket sizing uses. The last share is
// exactly 1.
func PrefixShares(sizes []int) []float64 {
	total := 0
	for _, n := range sizes {
		total += n
	}
	shares := make([]float64, len(sizes))
	if total == 0 {
		for i := range shares {
			shares[i] = 1
		}
		return shares
	}
	cum := 0
	for i, n := range sizes {
		cum += n
		shares[i] = float64(cum) / float64(total)
	}
	shares[len(shares)-1] = 1
	return shares
}

// IterSchedule describes one rank's compute for one iteration: when it
// started, how long forward and backward take on this rank (heterogeneity
// and jitter already applied), and — under per-bucket overlap — the prefix
// shares that time each bucket's gradient becoming ready.
type IterSchedule struct {
	// Start is the rank's clock when the iteration began.
	Start float64
	// Fwd and Bwd are this rank's forward and backward durations.
	Fwd, Bwd float64

	// prefix holds the per-bucket cumulative backward shares; nil models the
	// serialized (no-overlap) clock where every bucket waits for the full
	// backward pass.
	prefix []float64
}

// NewIterSchedule builds a schedule. prefix is the PrefixShares of the
// bucket sizes when communication overlaps backward, or nil for the
// serialized model.
func NewIterSchedule(start, fwd, bwd float64, prefix []float64) IterSchedule {
	return IterSchedule{Start: start, Fwd: fwd, Bwd: bwd, prefix: prefix}
}

// ComputeDone returns when this rank's compute for the iteration finishes.
// The operand order (start + (fwd + bwd)) is load-bearing: it matches the
// historical scalar clock bit-for-bit, so serialized homogeneous runs keep
// their exact simulated times.
func (s IterSchedule) ComputeDone() float64 {
	return s.Start + (s.Fwd + s.Bwd)
}

// ReadyAt returns when bucket i's gradient is ready on this rank — the
// earliest time the rank could contribute it to a collective. Without
// overlap every bucket waits for the full backward pass; with overlap,
// bucket i is ready after forward plus its prefix share of backward
// (reverse-registration order, bucket 0 first).
func (s IterSchedule) ReadyAt(i int) float64 {
	if s.prefix == nil {
		return s.ComputeDone()
	}
	return s.Start + s.Fwd + s.Bwd*s.prefix[i]
}

// WaitInterval returns the interval this rank spends blocked before a
// bucket's collective launches: from the moment the rank could contribute —
// its gradient ready, the communication stream free (streamFree is the
// previous collective's end on the shared in-order stream) — until the
// launch barrier releases. A non-positive duration means the rank did not
// wait (it was itself the barrier holder, or arrived exactly on time).
// Observation-only: the trace exporter draws these spans; no cost path
// consumes them.
func (s IterSchedule) WaitInterval(bucket int, streamFree, launch float64) (from, dur float64) {
	from = s.ReadyAt(bucket)
	if streamFree > from {
		from = streamFree
	}
	return from, launch - from
}

// Finish returns the rank's end-of-iteration clock: the later of its
// compute floor and the last collective's completion. This is the floor
// logic the trainer used to inline — communication may hide under backward,
// but the optimizer step cannot run before backward itself finishes.
func (s IterSchedule) Finish(commEnd float64) float64 {
	if done := s.ComputeDone(); done > commEnd {
		return done
	}
	return commEnd
}
