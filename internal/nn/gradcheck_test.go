package nn

import (
	"math"
	"testing"

	"pactrain/internal/tensor"
)

// lossOf runs a forward pass and returns a scalar pseudo-loss: the dot
// product of the output with a fixed random cotangent. Its analytic input
// gradient is Backward(cotangent), so comparing against finite differences
// validates the full backward pass.
func lossOf(l Layer, x *tensor.Tensor, cot *tensor.Tensor) float64 {
	out := l.Forward(x, true)
	return tensor.Dot(out, cot)
}

// gradCheckInput verifies dL/dx by central finite differences.
func gradCheckInput(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	r := tensor.NewRNG(99)
	out := l.Forward(x.Clone(), true)
	cot := tensor.Randn(r, 1, out.Shape()...)
	// Analytic gradient.
	l.Forward(x.Clone(), true)
	dx := l.Backward(cot)
	const eps = 1e-3
	xd := x.Data()
	checked := 0
	stride := len(xd)/25 + 1
	for i := 0; i < len(xd); i += stride {
		orig := xd[i]
		xd[i] = orig + eps
		lp := lossOf(l, x.Clone(), cot)
		xd[i] = orig - eps
		lm := lossOf(l, x.Clone(), cot)
		xd[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dx.Data()[i])
		if diff := math.Abs(numeric - analytic); diff > tol*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", i, analytic, numeric)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("gradCheckInput checked nothing")
	}
}

// gradCheckParams verifies dL/dθ for every parameter by finite differences.
func gradCheckParams(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	r := tensor.NewRNG(77)
	out := l.Forward(x.Clone(), true)
	cot := tensor.Randn(r, 1, out.Shape()...)
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	l.Forward(x.Clone(), true)
	l.Backward(cot)
	const eps = 1e-3
	for _, p := range l.Params() {
		wd := p.W.Data()
		stride := len(wd)/15 + 1
		for i := 0; i < len(wd); i += stride {
			orig := wd[i]
			wd[i] = orig + eps
			lp := lossOf(l, x.Clone(), cot)
			wd[i] = orig - eps
			lm := lossOf(l, x.Clone(), cot)
			wd[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.Grad.Data()[i])
			if diff := math.Abs(numeric - analytic); diff > tol*math.Max(1, math.Abs(numeric)) {
				t.Fatalf("param %s grad[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewLinear("fc", r, 6, 4)
	x := tensor.Randn(r, 1, 3, 6)
	gradCheckInput(t, l, x, 0.02)
	gradCheckParams(t, l, x, 0.02)
}

func TestReLUGradients(t *testing.T) {
	r := tensor.NewRNG(2)
	l := NewReLU()
	// Keep values away from the kink at 0.
	x := tensor.Randn(r, 1, 4, 5)
	for i, v := range x.Data() {
		if math.Abs(float64(v)) < 0.05 {
			x.Data()[i] = 0.5
		}
	}
	gradCheckInput(t, l, x, 0.02)
}

func TestGELUGradients(t *testing.T) {
	r := tensor.NewRNG(3)
	l := NewGELU()
	x := tensor.Randn(r, 1, 4, 5)
	gradCheckInput(t, l, x, 0.02)
}

func TestConv2DGradients(t *testing.T) {
	r := tensor.NewRNG(4)
	l := NewConv2D("conv", r, 2, 3, 3, 1, 1)
	x := tensor.Randn(r, 1, 2, 2, 5, 5)
	gradCheckInput(t, l, x, 0.03)
	gradCheckParams(t, l, x, 0.03)
}

func TestConv2DStrideGradients(t *testing.T) {
	r := tensor.NewRNG(5)
	l := NewConv2D("conv", r, 2, 4, 3, 2, 1)
	x := tensor.Randn(r, 1, 2, 2, 6, 6)
	gradCheckInput(t, l, x, 0.03)
	gradCheckParams(t, l, x, 0.03)
}

func TestMaxPoolGradients(t *testing.T) {
	r := tensor.NewRNG(6)
	l := NewMaxPool2D(2, 2)
	x := tensor.Randn(r, 1, 2, 2, 4, 4)
	gradCheckInput(t, l, x, 0.02)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	r := tensor.NewRNG(7)
	l := NewGlobalAvgPool2D()
	x := tensor.Randn(r, 1, 2, 3, 4, 4)
	gradCheckInput(t, l, x, 0.02)
}

func TestBatchNormGradients(t *testing.T) {
	r := tensor.NewRNG(8)
	l := NewBatchNorm2D("bn", 3)
	// Scale gamma/beta away from identity to exercise all terms.
	l.Gamma.W.Data()[0] = 1.5
	l.Beta.W.Data()[1] = 0.3
	x := tensor.Randn(r, 1, 4, 3, 3, 3)
	gradCheckInput(t, l, x, 0.05)
	gradCheckParams(t, l, x, 0.05)
}

func TestLayerNormGradients(t *testing.T) {
	r := tensor.NewRNG(9)
	l := NewLayerNorm("ln", 8)
	l.Gamma.W.Data()[2] = 1.7
	x := tensor.Randn(r, 1, 3, 4, 8)
	gradCheckInput(t, l, x, 0.05)
	gradCheckParams(t, l, x, 0.05)
}

func TestResidualGradients(t *testing.T) {
	r := tensor.NewRNG(10)
	body := NewSequential(
		NewConv2D("c1", r, 2, 2, 3, 1, 1),
		NewBatchNorm2D("b1", 2),
	)
	l := NewResidual(body, nil)
	x := tensor.Randn(r, 1, 2, 2, 4, 4)
	gradCheckInput(t, l, x, 0.05)
	gradCheckParams(t, l, x, 0.05)
}

func TestResidualDownsampleGradients(t *testing.T) {
	r := tensor.NewRNG(11)
	l := basicBlock("blk", r, 2, 4, 2)
	x := tensor.Randn(r, 1, 2, 2, 4, 4)
	gradCheckInput(t, l, x, 0.05)
	gradCheckParams(t, l, x, 0.06)
}

func TestAttentionGradients(t *testing.T) {
	r := tensor.NewRNG(12)
	l := NewMultiHeadAttention("attn", r, 8, 2)
	x := tensor.Randn(r, 0.5, 2, 3, 8)
	gradCheckInput(t, l, x, 0.05)
	gradCheckParams(t, l, x, 0.05)
}

func TestPatchEmbedGradients(t *testing.T) {
	r := tensor.NewRNG(13)
	l := NewPatchEmbed("embed", r, 2, 4, 4, 2, 6)
	x := tensor.Randn(r, 1, 2, 2, 4, 4)
	gradCheckInput(t, l, x, 0.03)
	gradCheckParams(t, l, x, 0.03)
}

func TestTransformerBlockGradients(t *testing.T) {
	r := tensor.NewRNG(14)
	l := NewTransformerBlock("blk", r, 8, 2, 2)
	x := tensor.Randn(r, 0.5, 2, 3, 8)
	gradCheckInput(t, l, x, 0.06)
	gradCheckParams(t, l, x, 0.06)
}

func TestTokenPoolGradients(t *testing.T) {
	r := tensor.NewRNG(15)
	l := NewTokenPool()
	x := tensor.Randn(r, 1, 2, 4, 6)
	gradCheckInput(t, l, x, 0.02)
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	r := tensor.NewRNG(16)
	logits := tensor.Randn(r, 1, 3, 5)
	labels := []int{1, 4, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const eps = 1e-3
	ld := logits.Data()
	for i := range ld {
		orig := ld[i]
		ld[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		ld[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		ld[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(grad.Data()[i])
		if math.Abs(numeric-analytic) > 0.01*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("loss grad[%d]: analytic %v vs numeric %v", i, analytic, numeric)
		}
	}
}
