// Package compress implements the gradient compression schemes evaluated in
// the PacTrain paper: the lossless fp32 baseline, FP16 quantization, TopK
// and RandomK sparsification, DGC (Deep Gradient Compression with momentum
// correction), TernGrad ternary quantization, QSGD-style stochastic
// quantization, a THC-style homomorphic lattice, and PacTrain's own
// mask-compact compressor (plain and ternary).
//
// Compressors are codecs: an encode, a decode and the wire format their
// payloads are priced in. Which collective carries a scheme's payloads is
// not theirs to say: the scheme table in internal/core decides it, and
// Table 1 (internal/harness) measures it from each run's recorded ops.
package compress

import (
	"fmt"
	"math"

	"pactrain/internal/collective"
	"pactrain/internal/tensor"
)

// Compressor is the common surface of all codecs.
type Compressor interface {
	// Wire returns the on-wire representation of payload elements.
	Wire() collective.WireFormat
}

// DenseCompressor produces payloads that aggregate by elementwise sum.
type DenseCompressor interface {
	Compressor
	// Encode transforms a gradient into its dense wire payload. The payload
	// length may differ from len(grad) (PacTrain compacts it).
	Encode(grad []float32) []float32
	// EncodeInto is Encode into a caller-provided buffer: it returns the
	// payload, reusing buf's backing array when it is large enough; the
	// trainer holds one buffer per bucket so steady-state iterations
	// allocate nothing on this path. EncodeInto(grad, nil) is exactly
	// Encode(grad).
	EncodeInto(grad, buf []float32) []float32
	// Decode writes the aggregated payload back into a full-size gradient.
	Decode(payload []float32, out []float32)
}

// SparseCompressor produces per-worker coordinate selections: workers pick
// different coordinates, so payloads are exchanged wholesale and summed
// locally.
type SparseCompressor interface {
	Compressor
	Encode(grad []float32) collective.SparsePayload
	// DecodeSum accumulates one worker's payload into out (out += payload).
	DecodeSum(p collective.SparsePayload, out []float32)
}

// grow returns buf resized to n elements, reallocating only when the backing
// array is too small. Contents are unspecified; callers overwrite every
// element (or zero explicitly).
func grow(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// --- FP32 (no compression) --------------------------------------------------

// FP32 is the lossless identity baseline ("all-reduce" in the figures).
type FP32 struct{}

// NewFP32 returns the identity compressor.
func NewFP32() *FP32 { return &FP32{} }

// Wire implements Compressor.
func (*FP32) Wire() collective.WireFormat { return collective.WireFP32 }

// Encode implements DenseCompressor.
func (c *FP32) Encode(grad []float32) []float32 { return c.EncodeInto(grad, nil) }

// EncodeInto implements DenseCompressor.
func (*FP32) EncodeInto(grad, buf []float32) []float32 {
	out := grow(buf, len(grad))
	copy(out, grad)
	return out
}

// Decode implements DenseCompressor.
func (*FP32) Decode(payload []float32, out []float32) { copy(out, payload) }

// --- FP16 -------------------------------------------------------------------

// FP16 rounds every gradient element through IEEE-754 binary16, halving the
// wire volume. Aggregation still sums in float32, as NCCL does for fp16
// all-reduce with fp32 accumulation.
type FP16 struct{}

// NewFP16 returns the fp16 compressor.
func NewFP16() *FP16 { return &FP16{} }

// Wire implements Compressor.
func (*FP16) Wire() collective.WireFormat { return collective.WireFP16 }

// Encode implements DenseCompressor.
func (c *FP16) Encode(grad []float32) []float32 { return c.EncodeInto(grad, nil) }

// EncodeInto implements DenseCompressor.
func (*FP16) EncodeInto(grad, buf []float32) []float32 {
	out := grow(buf, len(grad))
	for i, g := range grad {
		out[i] = HalfToFloat32(Float32ToHalf(g))
	}
	return out
}

// Decode implements DenseCompressor.
func (*FP16) Decode(payload []float32, out []float32) { copy(out, payload) }

// --- IEEE-754 binary16 conversion -------------------------------------------

// Float32ToHalf converts a float32 to IEEE-754 binary16 bits, rounding to
// nearest, ties away from zero (IEEE binary16 rounds ties to even; ROADMAP
// direction 7).
func Float32ToHalf(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32((bits>>23)&0xff) - 127 + 15
	man := bits & 0x7fffff

	if (bits>>23)&0xff == 0xff { // Inf or NaN
		if man != 0 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf
	}
	if exp >= 31 { // overflow → Inf
		return sign | 0x7c00
	}
	if exp <= 0 { // subnormal half or zero
		if exp < -10 {
			return sign
		}
		man |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(man >> shift)
		if man>>(shift-1)&1 != 0 { // round half up
			half++
		}
		return sign | half
	}
	half := sign | uint16(exp)<<10 | uint16(man>>13)
	if man&0x1000 != 0 {
		half++ // rounding may carry into the exponent, which is still valid
	}
	return half
}

// HalfToFloat32 converts IEEE-754 binary16 bits to float32.
func HalfToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		f := float32(man) / (1 << 24)
		if sign != 0 {
			return -f
		}
		return f
	case 31:
		if man != 0 {
			return float32(math.NaN())
		}
		if sign != 0 {
			return float32(math.Inf(-1))
		}
		return float32(math.Inf(1))
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// --- Registry ---------------------------------------------------------------

// topKSelector owns the scratch selection runs in: the candidate indices and
// the keys that share the threshold's top digit. Sparse compressors embed one
// and reuse it across calls. Selectors are not safe for concurrent use; each
// rank's compressor instance is driven serially, which is the only way the
// trainer calls them.
type topKSelector struct {
	idx  []int32
	keys []uint32
}

// topDigitShift leaves the top 11 bits of a tensor.MagnitudeBits key: the
// digit the first pass of topKIndices counts.
const topDigitShift = 20

// topKIndices returns the indices of the k largest |v| entries, ascending,
// with ties between equal magnitudes broken toward the lower index — the set
// a full sort by (|v| descending, index ascending) puts first. Magnitudes
// compare as tensor.MagnitudeBits keys, so a NaN ranks above every number.
//
// It finds the threshold th, the k-th largest key, then keeps what lies above
// it. One pass counts every key's top digit, which fixes th's digit d. A
// second collects, in ascending order, every index whose digit is at least d
// and the keys whose digit is d; tensor.KthKey among those keys gives th
// exactly. The output is every candidate above th plus the lowest-indexed
// candidates equal to it.
func (s *topKSelector) topKIndices(v []float32, k int) []int32 {
	n := len(v)
	k = min(k, n)
	if k <= 0 {
		return nil
	}
	// count[0] is never incremented: it is what the other bins leave of n,
	// and the zeros of a sparse bucket would all queue on that one counter.
	var count [1 << (31 - topDigitShift)]int
	for _, x := range v {
		if b := tensor.MagnitudeBits(x) >> topDigitShift; b != 0 {
			count[b]++
		}
	}
	// above counts the keys whose digit exceeds d; they are all selected.
	above, d := 0, uint32(len(count)-1)
	for d > 0 && above+count[d] < k {
		above += count[d]
		d--
	}
	if cap(s.idx) < n {
		s.idx, s.keys = make([]int32, n), make([]uint32, n)
	}
	idx, keys := s.idx[:0], s.keys[:0]
	for i, x := range v {
		if key := tensor.MagnitudeBits(x); key>>topDigitShift >= d {
			idx = append(idx, int32(i))
			if key>>topDigitShift == d {
				keys = append(keys, key)
			}
		}
	}
	th := tensor.KthKey(keys, len(keys)-(k-above))
	ties := k // what is left for keys equal to th once those above it are in
	for _, i := range idx {
		if tensor.MagnitudeBits(v[i]) > th {
			ties--
		}
	}
	out := make([]int32, 0, k)
	for _, i := range idx {
		if key := tensor.MagnitudeBits(v[i]); key > th || key == th && ties > 0 {
			if key == th {
				ties--
			}
			out = append(out, i)
		}
	}
	return out
}

// topKIndices is the selector without scratch reuse, for one-shot callers.
func topKIndices(v []float32, k int) []int32 {
	var s topKSelector
	return s.topKIndices(v, k)
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// ratioCount converts a compression ratio to a coordinate count, keeping at
// least one coordinate for non-empty gradients.
func ratioCount(n int, ratio float64) int {
	k := int(math.Round(float64(n) * ratio))
	if k < 1 && n > 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// ByName constructs a compressor by scheme name: the vocabulary the
// benchmark's compression probes time. Each name must build the codec its
// row in the scheme table (internal/core) states, error feedback aside;
// TestByNameAgreesWithSchemeTable holds the two together.
func ByName(name string, seed uint64) (Compressor, error) {
	switch {
	case name == "all-reduce" || name == "fp32" || name == "none":
		return NewFP32(), nil
	case name == "fp16":
		return NewFP16(), nil
	case name == "terngrad":
		return NewTernGrad(seed), nil
	case name == "qsgd":
		return NewQSGD(256, seed), nil
	case name == "thc":
		return NewTHC(256), nil
	case name == "topk-0.1":
		return NewTopK(0.1), nil
	case name == "topk-0.01":
		return NewTopK(0.01), nil
	case name == "randomk-0.1":
		return NewRandomK(0.1, seed), nil
	case name == "dgc-0.1":
		return NewDGC(0.1, 0.9), nil
	case name == "dgc-0.01":
		return NewDGC(0.01, 0.9), nil
	}
	return nil, fmt.Errorf("compress: unknown compressor %q", name)
}
