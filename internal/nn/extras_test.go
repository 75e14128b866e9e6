package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"pactrain/internal/tensor"
)

// TestBatchNormEvalUsesRunningStats verifies train/eval mode semantics:
// after training-mode passes accumulate running statistics, an eval pass
// must normalize with those statistics (not the eval batch's own), so a
// shifted eval batch produces shifted outputs.
func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	r := tensor.NewRNG(1)
	bn := NewBatchNorm2D("bn", 2)
	// Accumulate running stats over several zero-mean batches.
	for i := 0; i < 50; i++ {
		x := tensor.Randn(r, 1, 8, 2, 4, 4)
		bn.Forward(x, true)
	}
	// Eval on a strongly shifted batch: mean of output should reflect the
	// shift (≈ +5 / running_std), not renormalize to 0.
	shifted := tensor.Full(5, 8, 2, 4, 4)
	out := bn.Forward(shifted, false)
	if m := out.Sum() / float64(out.Len()); m < 2 {
		t.Fatalf("eval-mode output mean %v; running stats not used", m)
	}
	// Train-mode on the same batch would normalize toward 0 (variance is 0
	// → output ≈ beta = 0).
	outTrain := bn.Forward(shifted, true)
	if m := math.Abs(outTrain.Sum() / float64(outTrain.Len())); m > 0.5 {
		t.Fatalf("train-mode output mean %v; batch stats not used", m)
	}
}

func TestLayerNormNormalizesRows(t *testing.T) {
	r := tensor.NewRNG(2)
	ln := NewLayerNorm("ln", 16)
	x := tensor.Randn(r, 3, 4, 16)
	// Shift one row strongly; after LN its mean must return to ≈0.
	for i := 0; i < 16; i++ {
		x.Data()[i] += 100
	}
	out := ln.Forward(x, true)
	var rowMean float64
	for i := 0; i < 16; i++ {
		rowMean += float64(out.Data()[i])
	}
	rowMean /= 16
	if math.Abs(rowMean) > 1e-3 {
		t.Fatalf("layernorm row mean %v, want ≈0", rowMean)
	}
}

func TestMaxPoolUnevenInput(t *testing.T) {
	// 5x5 input with 2x2 stride-2 pool → 2x2 output, tail row/col dropped.
	x := tensor.Ones(1, 1, 5, 5)
	p := NewMaxPool2D(2, 2)
	out := p.Forward(x, true)
	if out.Dim(2) != 2 || out.Dim(3) != 2 {
		t.Fatalf("pool output shape %v", out.Shape())
	}
	// Backward must still route gradients only to visited positions.
	grad := tensor.Ones(1, 1, 2, 2)
	dx := p.Backward(grad)
	if dx.Len() != 25 {
		t.Fatalf("backward shape %v", dx.Shape())
	}
	if dx.Sum() != 4 {
		t.Fatalf("gradient mass %v, want 4", dx.Sum())
	}
}

func TestAttentionRowsSumToOne(t *testing.T) {
	r := tensor.NewRNG(3)
	attn := NewMultiHeadAttention("a", r, 8, 2)
	x := tensor.Randn(r, 1, 2, 5, 8)
	attn.Forward(x, true)
	for s := 0; s < 2; s++ {
		for h := 0; h < 2; h++ {
			a := attn.slots[s].attn[h]
			for row := 0; row < 5; row++ {
				var sum float64
				for col := 0; col < 5; col++ {
					v := float64(a.At(row, col))
					if v < 0 {
						t.Fatal("negative attention weight")
					}
					sum += v
				}
				if math.Abs(sum-1) > 1e-5 {
					t.Fatalf("attention row sums to %v", sum)
				}
			}
		}
	}
}

// TestAttentionSlotsReusedAcrossBatchesAndLengths pins the scratch rules:
// slots grow by appending and are reused by smaller batches, and the shared
// temporaries are rebuilt when T changes. One layer runs batches 2, 5 and 2
// at T = 5, then 3 at T = 9 and 2 at T = 5 again; every output, input
// gradient and parameter gradient equals a fresh layer's bit for bit.
func TestAttentionSlotsReusedAcrossBatchesAndLengths(t *testing.T) {
	reused := NewMultiHeadAttention("a", tensor.NewRNG(4), 12, 3)
	r := tensor.NewRNG(5)
	for step, nt := range [][2]int{{2, 5}, {5, 5}, {2, 5}, {3, 9}, {2, 5}} {
		x, grad := tensor.Randn(r, 1, nt[0], nt[1], 12), tensor.Randn(r, 1, nt[0], nt[1], 12)
		run := func(l *MultiHeadAttention) [][]float32 {
			for _, p := range l.Params() {
				p.ZeroGrad()
			}
			got := [][]float32{slices.Clone(l.Forward(x, true).Data()), slices.Clone(l.Backward(grad).Data())}
			for _, p := range l.Params() {
				got = append(got, p.Grad.Data())
			}
			return got
		}
		got, want := run(reused), run(NewMultiHeadAttention("a", tensor.NewRNG(4), 12, 3))
		for i := range want {
			sameConvBits(t, fmt.Sprintf("step %d (batch %d, T %d), result %d", step, nt[0], nt[1], i), got[i], want[i])
		}
	}
}

func TestViTForwardDeterministic(t *testing.T) {
	cfg := DefaultLiteConfig(10, 9)
	a := NewViTLite(cfg, 32, 4, 2)
	b := NewViTLite(cfg, 32, 4, 2)
	r := tensor.NewRNG(5)
	x := tensor.Randn(r, 1, 2, 3, 16, 16)
	oa := a.Forward(x, false)
	ob := b.Forward(x, false)
	for i := range oa.Data() {
		if oa.Data()[i] != ob.Data()[i] {
			t.Fatal("same-seed ViT forward differs")
		}
	}
}

// TestTrainingReducesLoss is a sanity check on every zoo model: five SGD
// steps on one repeated batch must reduce the loss (memorization).
func TestTrainingReducesLoss(t *testing.T) {
	for _, name := range []string{"VGG19", "ResNet18", "ViT-Base-16"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := DefaultLiteConfig(10, 21)
			m, err := NewLiteByName(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			opt := NewSGD(0.02, 0.9, 0)
			r := tensor.NewRNG(7)
			x := tensor.Randn(r, 1, 4, 3, 16, 16)
			labels := []int{0, 1, 2, 3}
			var first, last float64
			for step := 0; step < 5; step++ {
				out := m.Forward(x, true)
				loss, grad := SoftmaxCrossEntropy(out, labels)
				if step == 0 {
					first = loss
				}
				last = loss
				m.ZeroGrad()
				m.Backward(grad)
				opt.Step(m.Params())
			}
			if last >= first {
				t.Fatalf("loss did not decrease: %v → %v", first, last)
			}
		})
	}
}

// TestGELUBackwardReadsTheForwardTanh pins the saved-tanh backward to the one
// it replaced, which took math.Tanh of the same float64 expression again: the
// two agree bit for bit on zeros, denormals, infinities, NaN and |x| up to 40.
func TestGELUBackwardReadsTheForwardTanh(t *testing.T) {
	xs := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x007fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 40, -40, 1e-3, -7.5}
	r := tensor.NewRNG(5)
	for len(xs) < 24576 {
		xs = append(xs, float32(r.NormFloat64()*math.Pow(10, float64(len(xs)%5-3))))
	}
	x := tensor.FromSlice(xs, len(xs))
	grad := tensor.Randn(r, 1, len(xs))
	want := make([]float32, len(xs))
	for i, g := range grad.Data() {
		x := float64(xs[i])
		th := math.Tanh(geluC * (x + float64(0.044715*x*x*x)))
		want[i] = g * float32(float64(0.5*(1+th))+float64(0.5*x*(1-float64(th*th))*(geluC*(1+float64(3*0.044715*x*x)))))
	}
	l := NewGELU()
	l.Forward(x, true)
	for i, got := range l.Backward(grad).Data() {
		if math.Float32bits(got) != math.Float32bits(want[i]) {
			t.Fatalf("dx[%d] = %v for x = %v, want %v", i, got, xs[i], want[i])
		}
	}
}
