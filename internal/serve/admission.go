package serve

// Admission control: what stands between a burst of clients and the worker
// pool. Three mechanisms, layered in request order:
//
//  1. a per-client token bucket (Options.RateLimit/RateBurst) rejects
//     abusive clients before their requests are even parsed for validity;
//  2. a two-level priority queue replaces the old FIFO channel, so cheap
//     recost/audit submissions are not stuck behind fabric-sensitive grid
//     retrainings (priority inferred from the experiment Definition,
//     overridable per request);
//  3. queue-depth 429s carry a Retry-After derived from the observed drain
//     rate, so well-behaved clients back off for roughly as long as the
//     queue actually needs.
//
// Every 429 the service emits — rate-limit or queue-full — carries a
// Retry-After; TooBusyError is the typed carrier the HTTP layer reads.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"pactrain/internal/harness"
)

// Admission failure modes beyond the queue capacity.
var (
	// ErrRateLimited rejects a client that exhausted its token bucket (429).
	ErrRateLimited = errors.New("client rate limit exceeded")
	// ErrUnknownPriority rejects priority strings outside {high, low} (400).
	ErrUnknownPriority = errors.New("unknown priority")
)

// TooBusyError wraps an admission rejection with the backoff the client
// should honor; the HTTP layer surfaces it as a Retry-After header on the
// 429. errors.Is sees through it to the underlying sentinel.
type TooBusyError struct {
	Err           error
	RetryAfterSec int
}

func (e *TooBusyError) Error() string {
	return fmt.Sprintf("%v (retry after %ds)", e.Err, e.RetryAfterSec)
}

func (e *TooBusyError) Unwrap() error { return e.Err }

// Priority is a submission's queue level.
type Priority string

// Queue levels, highest first.
const (
	PriorityHigh Priority = "high"
	PriorityLow  Priority = "low"
)

// parsePriority validates a request's priority override; empty means infer.
func parsePriority(s string) (Priority, bool, error) {
	switch Priority(s) {
	case "":
		return "", false, nil
	case PriorityHigh, PriorityLow:
		return Priority(s), true, nil
	}
	return "", false, fmt.Errorf("%w: %q (valid: %s, %s)", ErrUnknownPriority, s, PriorityHigh, PriorityLow)
}

// inferPriority maps an experiment to its default queue level. Recost-only
// experiments price recorded logs without training and quick grids train in
// seconds — both jump the queue. Fabric-sensitive grids retrain per
// operating point (core.Config.FabricSensitive), the heaviest work the
// service accepts, and full-size grids are the bulk lane; both yield.
func inferPriority(def harness.Definition, quick bool) Priority {
	switch {
	case def.RecostOnly:
		return PriorityHigh
	case def.FabricSensitive:
		return PriorityLow
	case quick:
		return PriorityHigh
	}
	return PriorityLow
}

// jobQueue is the two-level admission queue. Pops serve the high level
// first; within a level, submission order. Guarded by the server mutex.
type jobQueue struct {
	high, low []*job
	closed    bool
}

func (q *jobQueue) depth() int { return len(q.high) + len(q.low) }

func (q *jobQueue) push(j *job) {
	if j.priority == PriorityHigh {
		q.high = append(q.high, j)
	} else {
		q.low = append(q.low, j)
	}
}

// pop removes the next job, high level first; nil when empty.
func (q *jobQueue) pop() *job {
	if len(q.high) > 0 {
		j := q.high[0]
		q.high = q.high[1:]
		return j
	}
	if len(q.low) > 0 {
		j := q.low[0]
		q.low = q.low[1:]
		return j
	}
	return nil
}

// promote moves a still-queued low-priority job to the high level — the
// coalescing upgrade: when a high-priority submission folds onto a queued
// low-priority twin, the twin inherits the urgency.
func (q *jobQueue) promote(j *job) bool {
	for i, queued := range q.low {
		if queued == j {
			q.low = append(q.low[:i], q.low[i+1:]...)
			j.priority = PriorityHigh
			q.high = append(q.high, j)
			return true
		}
	}
	return false
}

// drainEstimator tracks the service's observed completion rate as an EWMA
// over inter-completion gaps, the basis for Retry-After on queue-full 429s.
// Guarded by the server mutex.
type drainEstimator struct {
	rate float64 // completions per second, 0 until two completions observed
	last time.Time
}

// drainAlpha weights the newest inter-completion gap; high enough to track
// a load shift within a few jobs, low enough to ride out one outlier.
const drainAlpha = 0.3

func (d *drainEstimator) observe(now time.Time) {
	if !d.last.IsZero() {
		if dt := now.Sub(d.last).Seconds(); dt > 0 {
			r := 1 / dt
			if d.rate == 0 {
				d.rate = r
			} else {
				d.rate = float64(drainAlpha*r) + float64((1-drainAlpha)*d.rate)
			}
		}
	}
	d.last = now
}

// retryAfter estimates how many seconds until a queue currently holding
// depth jobs has room, clamped to [1s, 10min]. Before any completion has
// been observed the estimate assumes one job per second — wrong, but a
// bounded, honest default that still tells clients to back off.
func (d *drainEstimator) retryAfter(depth int) int {
	rate := d.rate
	if rate <= 0 {
		rate = 1
	}
	sec := math.Ceil(float64(depth+1) / rate)
	return int(math.Min(math.Max(sec, 1), 600))
}

// rateLimiter is a per-client token bucket table. Each client accrues
// rate tokens per second up to burst; a submission spends one. The table is
// bounded: past maxClients the oldest client state is evicted (that client
// simply starts over with a full bucket — forgiving, and bounded memory
// beats precise accounting for a key space an adversary controls).
type rateLimiter struct {
	rate    float64
	burst   float64
	clients map[string]*bucket
	order   []string
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxClients bounds the limiter table; at ~48 bytes a bucket this is a few
// hundred KB worst case.
const maxClients = 4096

// newRateLimiter returns nil when the limit is off (rate <= 0) — callers
// nil-check, and a nil limiter admits everything.
func newRateLimiter(rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		clients: make(map[string]*bucket),
	}
}

// allow spends one token for the client, reporting whether it was admitted
// and, when not, how long until the next token accrues. Guarded by the
// server mutex.
func (rl *rateLimiter) allow(client string, now time.Time) (bool, int) {
	if rl == nil {
		return true, 0
	}
	b, ok := rl.clients[client]
	if !ok {
		if len(rl.clients) >= maxClients {
			evict := rl.order[0]
			rl.order = rl.order[1:]
			delete(rl.clients, evict)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.clients[client] = b
		rl.order = append(rl.order, client)
	}
	b.tokens = math.Min(rl.burst, b.tokens+float64(now.Sub(b.last).Seconds()*rl.rate))
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := int(math.Ceil((1 - b.tokens) / rl.rate))
	if wait < 1 {
		wait = 1
	}
	return false, wait
}
