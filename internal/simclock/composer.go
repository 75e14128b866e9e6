package simclock

import "math"

// IterComposer batches one iteration's bucket-barrier queries across ranks —
// the incremental form of calling Timeline.LaunchTime once per recorded op.
// The naive replay is O(world) per op; the composer computes each bucket's
// barrier once per iteration and memoizes it, so an iteration costs
// O(world × buckets) instead of O(world × ops). The memoized scan evaluates
// the naive scan's float expressions in its operand order, so composition
// stays bit-exact — the repo's re-costing contract. Walks over many equal
// ranks stay cheap because core's clockWalk lays out one schedule per
// distinct compute multiplier, not one per rank.
//
// The composer reads the schedule slice it was built over; callers rewrite
// the slice in place each iteration and call Reset.
type IterComposer struct {
	scheds []IterSchedule

	barriers []float64
	have     []bool
}

// NewIterComposer builds a composer over scheds (retained, not copied).
func NewIterComposer(scheds []IterSchedule) *IterComposer {
	return &IterComposer{scheds: scheds}
}

// Reset re-reads the (rewritten) schedules for a new iteration.
func (c *IterComposer) Reset() {
	clear(c.have)
}

// Barrier returns the launch barrier for bucket — the maximum of the ranks'
// ReadyAt(bucket), exactly Timeline.LaunchTime over the schedules.
func (c *IterComposer) Barrier(bucket int) float64 {
	if bucket >= len(c.have) {
		grown := make([]bool, bucket+1)
		copy(grown, c.have)
		c.have = grown
		gb := make([]float64, bucket+1)
		copy(gb, c.barriers)
		c.barriers = gb
	}
	if !c.have[bucket] {
		c.barriers[bucket] = c.scan(bucket)
		c.have[bucket] = true
	}
	return c.barriers[bucket]
}

// scan is the uncached O(world) barrier: max ready time across ranks, with
// the same -inf seed and strict-greater comparison as Timeline.LaunchTime.
func (c *IterComposer) scan(bucket int) float64 {
	m := math.Inf(-1)
	for r := range c.scheds {
		if v := c.scheds[r].ReadyAt(bucket); v > m {
			m = v
		}
	}
	return m
}

// FinishInto sets every rank's clock to its schedule's Finish(commEnd) —
// the per-rank end-of-iteration update the replay loop would otherwise
// write by hand.
func (c *IterComposer) FinishInto(tl *Timeline, commEnd float64) {
	for r := range c.scheds {
		tl.Set(r, c.scheds[r].Finish(commEnd))
	}
}
