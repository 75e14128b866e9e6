// Package ddp reproduces the slice of PyTorch DistributedDataParallel that
// PacTrain interacts with: gradient bucketing and the communication-hook
// interface.
//
// DDP flattens parameter gradients into fixed-capacity one-dimensional
// buckets, in *reverse registration order* (gradients become ready roughly
// in reverse order during backward), and hands each bucket to a
// communication hook as an opaque flat tensor. Parameter names and
// boundaries are invisible to the hook — the abstraction gap that motivates
// the paper's Mask Tracker (§III-C). This package reproduces that shape
// faithfully: hooks receive flat float32 slices, and anything mask-aware
// must recover structure from the values alone.
//
// The package also carries the compute-time model that converts the paper's
// full-size model profiles (params, FLOPs) into simulated per-iteration
// compute seconds (DESIGN.md §1).
package ddp

import (
	"fmt"
	"strings"

	"pactrain/internal/nn"
	"pactrain/internal/tensor"
)

// DefaultBucketBytes mirrors PyTorch DDP's 25 MiB default bucket size.
const DefaultBucketBytes = 25 << 20

// Bucket is one flattened gradient bucket.
type Bucket struct {
	Index int
	// Params lists the parameters in bucket-internal order (reverse
	// registration order).
	Params []*nn.Parameter
	// Flat is the flattened gradient storage, len = Σ param elements. Each
	// parameter's Grad is a view of its own range of Flat (BuildBuckets), as
	// with DDP's gradient_as_bucket_view: backward accumulates straight into
	// the bucket, and a hook's Sync output is the gradient the optimizer reads.
	Flat []float32
}

// Elements returns the number of gradient scalars in the bucket.
func (b *Bucket) Elements() int { return len(b.Flat) }

// Gather copies the parameter gradients into Flat. Since BuildBuckets makes
// every Grad a view of Flat, it copies each range onto itself; the trainer
// never calls it.
func (b *Bucket) Gather() {
	off := 0
	for _, p := range b.Params {
		off += copy(b.Flat[off:], p.Grad.Data())
	}
}

// Scatter copies Flat back into the parameter gradients: like Gather, each
// range onto itself.
func (b *Bucket) Scatter() {
	off := 0
	for _, p := range b.Params {
		off += copy(p.Grad.Data(), b.Flat[off:])
	}
}

// Scale multiplies the flat gradient by alpha (used to average after a sum
// all-reduce).
func (b *Bucket) Scale(alpha float32) { tensor.Scale(b.Flat, alpha) }

// BuildBuckets partitions the model's parameters into buckets of at most
// capBytes bytes (fp32), in reverse registration order. A parameter larger
// than capBytes gets its own bucket. Each parameter's Grad is repointed at its
// range of the bucket's Flat, keeping its values: from here on a write
// through either is a write to both, and Model.ZeroGrad clears every Flat.
func BuildBuckets(m *nn.Model, capBytes int) []*Bucket {
	if capBytes <= 0 {
		capBytes = DefaultBucketBytes
	}
	params := m.Params()
	var buckets []*Bucket
	cur := &Bucket{}
	curBytes := 0
	flush := func() {
		if len(cur.Params) == 0 {
			return
		}
		total := 0
		for _, p := range cur.Params {
			total += p.NumElements()
		}
		cur.Flat = make([]float32, total)
		off := 0
		for _, p := range cur.Params {
			view := cur.Flat[off : off+p.NumElements() : off+p.NumElements()]
			copy(view, p.Grad.Data())
			p.Grad.Rebind(view)
			off += len(view)
		}
		cur.Index = len(buckets)
		buckets = append(buckets, cur)
		cur = &Bucket{}
		curBytes = 0
	}
	for i := len(params) - 1; i >= 0; i-- {
		p := params[i]
		pb := p.NumElements() * 4
		if curBytes > 0 && curBytes+pb > capBytes {
			flush()
		}
		cur.Params = append(cur.Params, p)
		curBytes += pb
	}
	flush()
	return buckets
}

// Hook is the communication-hook interface: Sync must overwrite b.Flat, in
// place, with the *average* of all workers' bucket gradients and return the
// synchronized completion time. Implementations live in internal/core; each
// is built per worker and knows its own rank.
type Hook interface {
	Sync(b *Bucket, localTime float64) float64
}

// ComputeModel converts a model profile into simulated compute seconds. The
// defaults approximate the paper's A40 workers.
type ComputeModel struct {
	// FLOPsPerSample is the forward-pass cost of one sample.
	FLOPsPerSample int64
	// DeviceFLOPS is the accelerator's peak throughput (fp32 FLOP/s).
	DeviceFLOPS float64
	// Efficiency is the achieved fraction of peak (0,1].
	Efficiency float64
	// BackwardFactor scales backward relative to forward (standard ≈ 2×).
	BackwardFactor float64
}

// A40ComputeModel returns the default device model: an NVIDIA A40 at
// 37.4 TFLOP/s fp32 (with TF32 paths) achieving 35% of peak on
// training-sized kernels.
func A40ComputeModel(flopsPerSample int64) ComputeModel {
	return ComputeModel{
		FLOPsPerSample: flopsPerSample,
		DeviceFLOPS:    37.4e12,
		Efficiency:     0.35,
		BackwardFactor: 2,
	}
}

// ForwardSeconds returns the simulated forward time for a batch.
func (c ComputeModel) ForwardSeconds(batch int) float64 {
	return float64(c.FLOPsPerSample) * float64(batch) / (c.DeviceFLOPS * c.Efficiency)
}

// BackwardSeconds returns the simulated backward time for a batch.
func (c ComputeModel) BackwardSeconds(batch int) float64 {
	return c.ForwardSeconds(batch) * c.BackwardFactor
}

// IterSeconds returns the total compute time of one iteration.
func (c ComputeModel) IterSeconds(batch int) float64 {
	return c.ForwardSeconds(batch) + c.BackwardSeconds(batch)
}

// RankCompute describes per-rank compute heterogeneity: stragglers, mixed
// hardware, and per-iteration noise. The zero value models the historical
// homogeneous cluster. All fields scale compute *time* — a multiplier of 2
// means the rank runs twice as slowly.
type RankCompute struct {
	// Multipliers holds per-rank compute-time factors (rank r uses
	// Multipliers[r]; ranks past the end run at 1.0). netsim carries presets
	// such as OneSlowRank.
	Multipliers []float64
	// JitterFrac adds deterministic per-(rank, iteration) noise: each
	// iteration's compute is scaled by 1 + JitterFrac·u with u drawn
	// uniformly from [-1, 1) by a splitmix64 stream keyed on (JitterSeed,
	// rank, iteration). Must sit in [0, 1).
	JitterFrac float64
	// JitterSeed seeds the jitter stream; two runs with equal seeds see
	// identical jitter, which is what keeps re-costing exact.
	JitterSeed uint64
}

// Enabled reports whether any heterogeneity is configured. A disabled
// RankCompute leaves every compute time bit-identical to the homogeneous
// model (Scale returns exactly 1).
func (rc RankCompute) Enabled() bool {
	return len(rc.Multipliers) > 0 || rc.JitterFrac > 0
}

// Canonical normalizes equivalent spellings onto one value so they share a
// fingerprint: trailing unit multipliers are trimmed (ranks past the slice
// already run at 1.0), an all-unit slice collapses to nil, and the jitter
// seed is zeroed when jitter is off (a dead field must not split cache
// keys).
func (rc RankCompute) Canonical() RankCompute {
	ms := rc.Multipliers
	for len(ms) > 0 && ms[len(ms)-1] == 1 {
		ms = ms[:len(ms)-1]
	}
	if len(ms) == 0 {
		rc.Multipliers = nil
	} else {
		rc.Multipliers = append([]float64(nil), ms...)
	}
	if rc.JitterFrac <= 0 {
		rc.JitterFrac, rc.JitterSeed = 0, 0
	}
	return rc
}

// MaxMultiplier bounds a rank's compute multiplier: a rank a million times
// slower keeps every scaled compute time, and the clocks that sum them,
// finite, where +Inf or a huge multiplier turns them into NaN.
const MaxMultiplier = 1e6

// Validate rejects multipliers outside (0, MaxMultiplier], more multipliers
// than ranks, and jitter outside [0, 1); NaN is outside every range.
func (rc RankCompute) Validate(world int) error {
	if len(rc.Multipliers) > world {
		return fmt.Errorf("ddp: %d rank-compute multipliers for %d ranks", len(rc.Multipliers), world)
	}
	for r, m := range rc.Multipliers {
		if !(m > 0 && m <= MaxMultiplier) {
			return fmt.Errorf("ddp: rank %d compute multiplier %v outside (0,%g]", r, m, float64(MaxMultiplier))
		}
	}
	if !(rc.JitterFrac >= 0 && rc.JitterFrac < 1) {
		return fmt.Errorf("ddp: compute jitter %v outside [0,1)", rc.JitterFrac)
	}
	return nil
}

// Scale returns the compute-time factor for one rank's iteration:
// multiplier × (1 + jitter). It is a pure function of (rc, rank, iter), so
// the trainer and the re-costing path (harness) reconstruct identical
// per-rank clocks — the bit-exactness contract extends to heterogeneous
// runs. When rc is disabled it returns exactly 1, and multiplying by it
// leaves every float bit-identical.
func (rc RankCompute) Scale(rank, iter int) float64 {
	s := 1.0
	if rank < len(rc.Multipliers) {
		s = rc.Multipliers[rank]
	}
	if rc.JitterFrac > 0 {
		// One splitmix64 draw keyed on (seed, rank, iter); odd multipliers
		// keep distinct (rank, iter) pairs from colliding.
		r := tensor.NewRNG(rc.JitterSeed*0x9E3779B97F4A7C15 +
			uint64(rank)*0xBF58476D1CE4E5B9 + uint64(iter)*0x94D049BB133111EB + 1)
		u := 2*r.Float64() - 1
		s *= 1 + rc.JitterFrac*u
	}
	return s
}

// Overlap selects how bucket communication interleaves with backward
// compute when composing iteration time.
type Overlap int

// Overlap modes.
const (
	// OverlapNone serializes compute then communication — the conservative
	// model used for the headline results (the paper's bottleneck regimes
	// are communication-dominated, where overlap barely matters).
	OverlapNone Overlap = iota
	// OverlapBackward hides communication under backward compute: each
	// bucket's collective launches once its gradient is ready (forward plus
	// the bucket's prefix share of backward, reverse-registration order) and
	// the iteration cannot finish before backward does — the exact
	// per-bucket timeline model (simclock, DESIGN.md §9).
	OverlapBackward
)

// String implements fmt.Stringer. The names round-trip through
// ParseOverlap.
func (o Overlap) String() string {
	switch o {
	case OverlapNone:
		return "none"
	case OverlapBackward:
		return "backward"
	}
	return "unknown"
}

// OverlapNames lists the selector vocabulary ParseOverlap accepts, in mode
// order.
func OverlapNames() []string { return []string{"none", "backward"} }

// ParseOverlap resolves a CLI/API selector to an Overlap mode. The empty
// string means OverlapNone (the historical default); unknown names error
// with the valid vocabulary.
func ParseOverlap(name string) (Overlap, error) {
	switch name {
	case "", OverlapNone.String():
		return OverlapNone, nil
	case OverlapBackward.String():
		return OverlapBackward, nil
	}
	return 0, fmt.Errorf("ddp: unknown overlap mode %q (have %s)",
		name, strings.Join(OverlapNames(), ", "))
}

// MustOverlap is ParseOverlap for callers whose input was already
// validated; it panics on unknown names.
func MustOverlap(name string) Overlap {
	o, err := ParseOverlap(name)
	if err != nil {
		panic(err)
	}
	return o
}
