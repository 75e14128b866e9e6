package nn

import (
	"testing"

	"pactrain/internal/tensor"
)

// TestSteadyStateStepsAllocationFree pins the scratch-reuse contract: after a
// warm-up step sizes every buffer, a forward+backward through each layer
// family allocates nothing.
func TestSteadyStateStepsAllocationFree(t *testing.T) {
	r := tensor.NewRNG(11)

	cases := []struct {
		name string
		step func()
	}{
		{"Linear", func() {
			l := NewLinear("l", r, 64, 32)
			x := tensor.Randn(r, 1, 8, 64)
			g := tensor.Randn(r, 1, 8, 32)
			stepAllocs(t, "Linear", func() {
				l.Forward(x, true)
				l.Backward(g)
			})
		}},
		{"Conv2D+BatchNorm", func() {
			c := NewConv2D("c", r, 3, 8, 3, 1, 1)
			bn := NewBatchNorm2D("bn", 8)
			relu := NewReLU()
			x := tensor.Randn(r, 1, 4, 3, 16, 16)
			g := tensor.Randn(r, 1, 4, 8, 16, 16)
			stepAllocs(t, "Conv2D+BatchNorm", func() {
				y := c.Forward(x, true)
				y = bn.Forward(y, true)
				y = relu.Forward(y, true)
				d := relu.Backward(g)
				d = bn.Backward(d)
				c.Backward(d)
			})
		}},
		{"TransformerBlock", func() {
			b := NewTransformerBlock("b", r, 16, 2, 2)
			x := tensor.Randn(r, 1, 2, 9, 16)
			g := tensor.Randn(r, 1, 2, 9, 16)
			stepAllocs(t, "TransformerBlock", func() {
				b.Forward(x, true)
				b.Backward(g)
			})
		}},
	}
	for _, c := range cases {
		c.step()
	}

	// A trainer's model flips between evaluation chunks and training batches:
	// once the scratch has held the largest shape, a whole eval(64) →
	// eval(8) → train(8) cycle allocates nothing.
	for _, name := range []string{"ResNet18", "ViT-Base-16"} {
		m, err := NewLiteByName(name, DefaultLiteConfig(10, 1))
		if err != nil {
			t.Fatal(err)
		}
		x64 := tensor.Randn(r, 1, 64, 3, 16, 16)
		x8 := tensor.Randn(r, 1, 8, 3, 16, 16)
		g8 := tensor.Randn(r, 1, 8, 10)
		cycle := func() {
			m.Forward(x64, false)
			m.Forward(x8, false)
			m.Forward(x8, true)
			m.Backward(g8)
		}
		cycle()
		if n := testing.AllocsPerRun(3, cycle); n > 0 {
			t.Errorf("%s: eval(64) → eval(8) → train(8) allocates %.1f times after the first round, want 0", name, n)
		}
	}
}

// stepAllocs warms the layer's scratch, then asserts a steady-state step
// performs zero heap allocations.
func stepAllocs(t *testing.T, name string, step func()) {
	t.Helper()
	for i := 0; i < 3; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n > 0 {
		t.Errorf("%s: steady-state step allocates %.1f times, want 0", name, n)
	}
}

func benchmarkTrainStep(b *testing.B, model *Model) {
	r := tensor.NewRNG(1)
	x := tensor.Randn(r, 1, 8, 3, 16, 16)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = r.Intn(10)
	}
	opt := NewSGD(0.05, 0.9, 5e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.ZeroGrad()
		logits := model.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(logits, labels)
		model.Backward(grad)
		opt.Step(model.Params())
	}
}

func BenchmarkTrainStepMLP(b *testing.B) {
	benchmarkTrainStep(b, NewMLP(DefaultLiteConfig(10, 1), 64))
}

func BenchmarkTrainStepVGG(b *testing.B) {
	benchmarkTrainStep(b, NewVGGLite(DefaultLiteConfig(10, 1)))
}

func BenchmarkTrainStepAttn(b *testing.B) {
	cfg := DefaultLiteConfig(10, 1)
	benchmarkTrainStep(b, NewViTLite(cfg, 4*cfg.Width, 4, 2))
}

// BenchmarkSGDStep is the optimizer alone on the MLP twin's parameters, with
// momentum and weight decay as every trainer sets them.
func BenchmarkSGDStep(b *testing.B) {
	params := NewMLP(DefaultLiteConfig(10, 1), 64).Params()
	elements := 0
	for _, p := range params {
		p.Grad.Fill(0.01)
		elements += p.NumElements()
	}
	opt := NewSGD(0.05, 0.9, 5e-4)
	b.SetBytes(int64(4 * elements))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(params)
	}
}

// BenchmarkActivations times the activation and BatchNorm layers at the
// shapes train_job's twins give them: the ViT-Base-16 twin's MLP GELU (8
// images × 17 tokens × 96 features) and the ResNet18 twin's first stage (8 ×
// 10 channels × 16 × 16) for ReLU, the residual block's add-ReLU and
// BatchNorm.
func BenchmarkActivations(b *testing.B) {
	r := tensor.NewRNG(1)
	tokens := tensor.Randn(r, 1, 8*17, 96)
	planes := tensor.Randn(r, 1, 8, 10, 16, 16)
	grad := tensor.Randn(r, 1, 8, 10, 16, 16)
	gelu, relu, bn := NewGELU(), NewReLU(), NewBatchNorm2D("bn", 10)
	add := NewResidual(NewSequential(), nil) // relu(x + x)
	relu.Forward(planes, true)
	bn.Forward(planes, true)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"gelu-fwd", func() { gelu.Forward(tokens, true) }},
		{"relu-fwd", func() { relu.Forward(planes, true) }},
		{"relu-bwd", func() { relu.Backward(grad) }},
		{"add-relu", func() { add.Forward(planes, true) }},
		{"bn-fwd", func() { bn.Forward(planes, true) }},
		{"bn-bwd", func() { bn.Backward(grad) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}
