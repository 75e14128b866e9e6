package compress

import (
	"fmt"

	"pactrain/internal/collective"
	"pactrain/internal/tensor"
)

// MaskCompact is PacTrain's compression scheme (§III-C): because every
// worker shares global knowledge of the gradient sparsity pattern (the
// pruning mask), the sparse gradient can be reformatted into a
// low-dimensional *dense* tensor containing only the non-masked coordinates
// — no indices on the wire, elementwise summation still valid, hence fully
// all-reduce compatible and lossless on the retained coordinates.
//
// The mask is installed by the Mask Tracker once the sparsity pattern is
// stable; until then the caller must fall back to full synchronization
// (Algorithm 1, lines 11–12).
type MaskCompact struct {
	indices []int32 // retained coordinates, ascending
	fullLen int
	maskSet bool

	// Ternary optionally applies TernGrad quantization to the compacted
	// gradient (§III-D), shrinking the wire further.
	Ternary bool
	rng     *tensor.RNG
}

// NewMaskCompact returns a compressor without a mask; SetMask must be called
// before Encode.
func NewMaskCompact(ternary bool, seed uint64) *MaskCompact {
	return &MaskCompact{Ternary: ternary, rng: tensor.NewRNG(seed)}
}

// SetMask installs the shared sparsity pattern: the ascending indices of
// retained (non-pruned) coordinates within a gradient of fullLen elements. A
// fully pruned (empty) mask is valid: it encodes to an empty payload.
func (m *MaskCompact) SetMask(indices []int32, fullLen int) {
	for i := 1; i < len(indices); i++ {
		if indices[i] <= indices[i-1] {
			panic("compress: MaskCompact indices must be strictly ascending")
		}
	}
	if len(indices) > 0 && int(indices[len(indices)-1]) >= fullLen {
		panic("compress: MaskCompact index out of range")
	}
	m.indices = indices
	m.fullLen = fullLen
	m.maskSet = true
}

// NNZ returns the retained coordinate count.
func (m *MaskCompact) NNZ() int { return len(m.indices) }

// Wire implements Compressor.
func (m *MaskCompact) Wire() collective.WireFormat {
	if m.Ternary {
		return collective.WireInt8
	}
	return collective.WireFP32
}

// Encode implements DenseCompressor: gather the retained coordinates into a
// compact dense vector of length NNZ.
func (m *MaskCompact) Encode(grad []float32) []float32 { return m.EncodeInto(grad, nil) }

// EncodeInto implements DenseCompressor: a gather of the mask's coordinates,
// then the optional ternary stage, which consumes a sequential RNG stream.
func (m *MaskCompact) EncodeInto(grad, buf []float32) []float32 {
	if !m.maskSet {
		panic("compress: MaskCompact.Encode before SetMask")
	}
	if len(grad) != m.fullLen {
		panic(fmt.Sprintf("compress: gradient length %d does not match mask domain %d", len(grad), m.fullLen))
	}
	out := grow(buf, len(m.indices))
	for i, j := range m.indices {
		out[i] = grad[j]
	}
	if m.Ternary {
		Ternarize(m.rng, out, out)
	}
	return out
}

// Decode implements DenseCompressor: scatter the aggregated compact vector
// back to full size; masked coordinates stay zero, exactly reproducing the
// GSE-enforced gradient support.
func (m *MaskCompact) Decode(payload []float32, out []float32) {
	if len(payload) != len(m.indices) {
		panic("compress: MaskCompact.Decode payload length mismatch")
	}
	clear(out)
	for i, j := range m.indices {
		out[j] = payload[i]
	}
}

// EncodeSparse gathers the retained coordinates as a COO (values, indices)
// pair — the index-list wire format the adaptive controller can pick when
// latency, not bytes, bounds the round. Values reuse buf as in EncodeInto;
// the index slice is the installed mask and must not be mutated. Values
// include in-mask zeros, so the payload length is always NNZ
// (replica-identical, and exactly what the controller's quote priced).
func (m *MaskCompact) EncodeSparse(grad, buf []float32) ([]float32, []int32) {
	if !m.maskSet {
		panic("compress: MaskCompact.EncodeSparse before SetMask")
	}
	if len(grad) != m.fullLen {
		panic(fmt.Sprintf("compress: gradient length %d does not match mask domain %d", len(grad), m.fullLen))
	}
	vals := grow(buf, len(m.indices))
	for i, j := range m.indices {
		vals[i] = grad[j]
	}
	return vals, m.indices
}
