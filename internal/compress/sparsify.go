package compress

import (
	"fmt"

	"pactrain/internal/collective"
	"pactrain/internal/tensor"
)

// DecodeSumSparse accumulates a sparse payload into out: the decode under
// every SparseCompressor's DecodeSum, and the scatter-add (tensor.ScatterAdd)
// collective.AllGatherSum runs once per payload.
func DecodeSumSparse(p collective.SparsePayload, out []float32) {
	tensor.ScatterAdd(out, p.Indices, p.Values)
}

// TopK transmits the k = ratio·n largest-magnitude coordinates as
// (value,index) pairs [Aji & Heafield 2017]. Selections differ per worker,
// so aggregation requires all-gather (Table 1: incompatible with
// all-reduce). Use WrapErrorFeedback to add the residual accumulation that
// makes TopK converge.
type TopK struct {
	Ratio float64

	sel topKSelector
}

// NewTopK returns a TopK compressor with the given keep ratio.
func NewTopK(ratio float64) *TopK {
	if ratio <= 0 || ratio > 1 {
		panic(fmt.Sprintf("compress: invalid TopK ratio %v", ratio))
	}
	return &TopK{Ratio: ratio}
}

// Wire implements Compressor.
func (*TopK) Wire() collective.WireFormat { return collective.WireSparse }

// Encode implements SparseCompressor.
func (t *TopK) Encode(grad []float32) collective.SparsePayload {
	k := ratioCount(len(grad), t.Ratio)
	idx := t.sel.topKIndices(grad, k)
	vals := make([]float32, len(idx))
	for i, j := range idx {
		vals[i] = grad[j]
	}
	return collective.SparsePayload{Values: vals, Indices: idx}
}

// DecodeSum implements SparseCompressor.
func (*TopK) DecodeSum(p collective.SparsePayload, out []float32) {
	DecodeSumSparse(p, out)
}

// RandomK transmits a random subset of coordinates, the unbiased (but
// higher-variance) cousin of TopK.
type RandomK struct {
	Ratio float64
	rng   *tensor.RNG
}

// NewRandomK returns a RandomK compressor seeded deterministically.
func NewRandomK(ratio float64, seed uint64) *RandomK {
	if ratio <= 0 || ratio > 1 {
		panic(fmt.Sprintf("compress: invalid RandomK ratio %v", ratio))
	}
	return &RandomK{Ratio: ratio, rng: tensor.NewRNG(seed)}
}

// Wire implements Compressor.
func (*RandomK) Wire() collective.WireFormat { return collective.WireSparse }

// Encode implements SparseCompressor.
func (r *RandomK) Encode(grad []float32) collective.SparsePayload {
	k := ratioCount(len(grad), r.Ratio)
	perm := r.rng.Perm(len(grad))
	idx := make([]int32, k)
	for i := 0; i < k; i++ {
		idx[i] = int32(perm[i])
	}
	// Scale kept coordinates by n/k to stay unbiased in expectation.
	scale := float32(float64(len(grad)) / float64(k))
	vals := make([]float32, k)
	for i, j := range idx {
		vals[i] = grad[j] * scale
	}
	return collective.SparsePayload{Values: vals, Indices: idx}
}

// DecodeSum implements SparseCompressor.
func (*RandomK) DecodeSum(p collective.SparsePayload, out []float32) {
	DecodeSumSparse(p, out)
}

// NonZero transmits a gradient's exact non-zero coordinates as
// (value,index) pairs in ascending index order (Zen-style, §II): lossless,
// and at 8 B per non-zero it beats dense only below 50% density. The test
// is v != 0, so ±0 is dropped and NaN is sent.
type NonZero struct {
	buf collective.SparsePayload // the payload, reused by every Encode
}

// NewNonZero returns a NonZero compressor.
func NewNonZero() *NonZero { return &NonZero{} }

// Wire implements Compressor.
func (*NonZero) Wire() collective.WireFormat { return collective.WireSparse }

// Encode implements SparseCompressor. The payload is valid until the next
// Encode: an all-gather reads it only inside its rendezvous.
func (z *NonZero) Encode(grad []float32) collective.SparsePayload {
	p := z.buf
	p.Values, p.Indices = p.Values[:0], p.Indices[:0]
	for i, v := range grad {
		if v != 0 {
			p.Values = append(p.Values, v)
			p.Indices = append(p.Indices, int32(i))
		}
	}
	z.buf = p
	return p
}

// DecodeSum implements SparseCompressor.
func (*NonZero) DecodeSum(p collective.SparsePayload, out []float32) {
	DecodeSumSparse(p, out)
}

// DGC is Deep Gradient Compression [Lin et al. 2018]: TopK sparsification
// with momentum correction and gradient accumulation. Unselected
// coordinates accumulate locally (in velocity u and accumulator v) until
// they win the top-k selection, preserving convergence at aggressive ratios.
type DGC struct {
	Ratio    float64
	Momentum float64

	u []float32 // momentum-corrected velocity
	v []float32 // local gradient accumulator

	sel topKSelector
}

// NewDGC returns a DGC compressor.
func NewDGC(ratio, momentum float64) *DGC {
	if ratio <= 0 || ratio > 1 {
		panic(fmt.Sprintf("compress: invalid DGC ratio %v", ratio))
	}
	return &DGC{Ratio: ratio, Momentum: momentum}
}

// Wire implements Compressor.
func (*DGC) Wire() collective.WireFormat { return collective.WireSparse }

// Encode implements SparseCompressor: momentum correction (u ← m·u + g),
// accumulation (v ← v + u), top-k selection on v, and clearing of the
// transmitted coordinates.
func (d *DGC) Encode(grad []float32) collective.SparsePayload {
	n := len(grad)
	if d.u == nil {
		d.u = make([]float32, n)
		d.v = make([]float32, n)
	}
	if len(d.u) != n {
		panic("compress: DGC gradient length changed between iterations")
	}
	m := float32(d.Momentum)
	for i := range n {
		d.u[i] = float32(m*d.u[i]) + grad[i]
		d.v[i] += d.u[i]
	}
	k := ratioCount(n, d.Ratio)
	idx := d.sel.topKIndices(d.v, k)
	vals := make([]float32, len(idx))
	for i, j := range idx {
		vals[i] = d.v[j]
		d.v[j] = 0
		d.u[j] = 0 // momentum factor masking
	}
	return collective.SparsePayload{Values: vals, Indices: idx}
}

// DecodeSum implements SparseCompressor.
func (*DGC) DecodeSum(p collective.SparsePayload, out []float32) {
	DecodeSumSparse(p, out)
}

// ErrorFeedback wraps a sparse compressor with residual accumulation
// (error feedback): coordinates not transmitted this round are added back
// into the next gradient, turning one-shot truncation error into delay.
type ErrorFeedback struct {
	Inner    SparseCompressor
	residual []float32
}

// WrapErrorFeedback wraps inner with an error-feedback residual.
func WrapErrorFeedback(inner SparseCompressor) *ErrorFeedback {
	return &ErrorFeedback{Inner: inner}
}

// Wire implements Compressor.
func (e *ErrorFeedback) Wire() collective.WireFormat { return e.Inner.Wire() }

// Encode implements SparseCompressor.
func (e *ErrorFeedback) Encode(grad []float32) collective.SparsePayload {
	n := len(grad)
	if e.residual == nil {
		e.residual = make([]float32, n)
	}
	if len(e.residual) != n {
		panic("compress: ErrorFeedback gradient length changed")
	}
	// The corrected gradient grad + residual is built in the residual itself:
	// what is left of it once the transmitted coordinates are cleared is the
	// next residual. (Encoders read their input; none keeps or edits it.)
	for i := range n {
		e.residual[i] = grad[i] + e.residual[i]
	}
	p := e.Inner.Encode(e.residual)
	for _, j := range p.Indices {
		e.residual[j] = 0
	}
	return p
}

// DecodeSum implements SparseCompressor.
func (e *ErrorFeedback) DecodeSum(p collective.SparsePayload, out []float32) {
	e.Inner.DecodeSum(p, out)
}
