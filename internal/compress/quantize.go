package compress

import (
	"fmt"
	"math"

	"pactrain/internal/collective"
	"pactrain/internal/tensor"
)

// TernGrad quantizes each gradient coordinate to s·{−1, 0, +1} where
// s = max|g| and P(±s) = |g|/s [Wen et al. 2017]. The quantization is
// unbiased in expectation (Eq. 3 of the PacTrain paper). Sums of ternary
// payloads remain integer multiples of the scales, so aggregation is
// all-reduce compatible; the wire carries one byte per element to allow the
// widening that summation across eight workers requires.
type TernGrad struct {
	rng *tensor.RNG
}

// NewTernGrad returns a TernGrad compressor with a deterministic stream.
func NewTernGrad(seed uint64) *TernGrad {
	return &TernGrad{rng: tensor.NewRNG(seed)}
}

// Wire implements Compressor.
func (*TernGrad) Wire() collective.WireFormat { return collective.WireInt8 }

// Encode implements DenseCompressor.
func (t *TernGrad) Encode(grad []float32) []float32 { return t.EncodeInto(grad, nil) }

// EncodeInto implements DenseCompressor. The ternary draw consumes a
// sequential RNG stream, so the quantization loop itself stays scalar; only
// the buffer is reused.
func (t *TernGrad) EncodeInto(grad, buf []float32) []float32 {
	out := grow(buf, len(grad))
	Ternarize(t.rng, grad, out)
	return out
}

// Decode implements DenseCompressor.
func (*TernGrad) Decode(payload []float32, out []float32) { copy(out, payload) }

// Ternarize writes the ternary quantization of grad into out (which may
// alias grad): out[i] ∈ {−s, 0, +s} with E[out] = grad. It is exported so
// PacTrain can reuse it on compacted gradients (§III-D).
//
// The keep decision is a coin flip, so the loop is branch-free: keep becomes
// a bit mask that selects s with v's sign or +0. Each element still takes one
// rng draw in order and compares it with the float32 ratio |v|/s, so a NaN or
// zero element is dropped and a kept one is ±s by the sign of v.
func Ternarize(rng *tensor.RNG, grad []float32, out []float32) {
	s := tensor.MaxAbs(grad)
	if s == 0 {
		clear(out)
		return
	}
	const sign = 1 << 31
	sb := math.Float32bits(s)
	for i, v := range grad {
		vb := math.Float32bits(v)
		p := float64(math.Float32frombits(vb&^sign) / s)
		keep := uint32(0)
		if rng.Float64() < p {
			keep = ^uint32(0)
		}
		out[i] = math.Float32frombits((sb | vb&sign) & keep)
	}
}

// QSGD performs stochastic uniform quantization with L levels per sign
// [Alistarh et al. 2017-style]: coordinates round stochastically to the
// nearest lattice point of s·{0, 1/L, …, 1}, remaining unbiased. With
// L = 256 the wire cost is one byte per element.
type QSGD struct {
	Levels int
	rng    *tensor.RNG
}

// NewQSGD returns a QSGD compressor.
func NewQSGD(levels int, seed uint64) *QSGD {
	if levels < 2 {
		panic(fmt.Sprintf("compress: QSGD needs ≥2 levels, got %d", levels))
	}
	return &QSGD{Levels: levels, rng: tensor.NewRNG(seed)}
}

// Wire implements Compressor.
func (q *QSGD) Wire() collective.WireFormat {
	bits := math.Ceil(math.Log2(float64(q.Levels))) + 1 // + sign bit
	return collective.WireFormat{Name: fmt.Sprintf("qsgd-%d", q.Levels), BytesPerElement: bits / 8, HeaderBytes: 8}
}

// Encode implements DenseCompressor.
func (q *QSGD) Encode(grad []float32) []float32 { return q.EncodeInto(grad, nil) }

// EncodeInto implements DenseCompressor. Like TernGrad, the stochastic
// rounding consumes a sequential RNG stream and stays scalar.
func (q *QSGD) EncodeInto(grad, buf []float32) []float32 {
	out := grow(buf, len(grad))
	s := tensor.MaxAbs(grad)
	if s == 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	L := float64(q.Levels)
	for i, v := range grad {
		x := float64(float64(abs32(v)) / float64(s) * L)
		lo := math.Floor(x)
		frac := x - lo
		level := lo
		if q.rng.Float64() < frac {
			level++
		}
		val := float32(level / L * float64(s))
		if v < 0 {
			val = -val
		}
		out[i] = val
	}
	return out
}

// Decode implements DenseCompressor.
func (*QSGD) Decode(payload []float32, out []float32) { copy(out, payload) }

// THC is a THC-style homomorphic lattice quantizer [Li et al. 2024]: all
// workers quantize onto a shared uniform lattice so the aggregator can sum
// quantized values without decompressing. The published system performs the
// aggregation on a parameter server / programmable switch, which is why
// Table 1 marks it incompatible with all-reduce; the "thc" scheme prices it
// through a parameter server.
type THC struct {
	Levels int
}

// NewTHC returns a THC-style compressor.
func NewTHC(levels int) *THC {
	if levels < 2 {
		panic(fmt.Sprintf("compress: THC needs ≥2 levels, got %d", levels))
	}
	return &THC{Levels: levels}
}

// Wire implements Compressor.
func (t *THC) Wire() collective.WireFormat {
	bits := math.Ceil(math.Log2(float64(t.Levels)))
	return collective.WireFormat{Name: "thc", BytesPerElement: bits / 8, HeaderBytes: 16}
}

// Encode implements DenseCompressor: deterministic rounding onto the shared
// lattice spanning [−s, s].
func (t *THC) Encode(grad []float32) []float32 { return t.EncodeInto(grad, nil) }

// EncodeInto implements DenseCompressor.
func (t *THC) EncodeInto(grad, buf []float32) []float32 {
	out := grow(buf, len(grad))
	s := tensor.MaxAbs(grad)
	if s == 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	L := float64(t.Levels - 1)
	step := 2 * float64(s) / L
	for i := range grad {
		q := math.Round((float64(grad[i]) + float64(s)) / step)
		out[i] = float32(float64(q*step) - float64(s))
	}
	return out
}

// Decode implements DenseCompressor.
func (*THC) Decode(payload []float32, out []float32) { copy(out, payload) }
