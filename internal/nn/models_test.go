package nn

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pactrain/internal/tensor"
)

func TestModelZooBuilds(t *testing.T) {
	cfg := DefaultLiteConfig(10, 1)
	for _, name := range []string{"VGG19", "ResNet18", "ResNet152", "ViT-Base-16", "MLP"} {
		m, err := NewLiteByName(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.NumParameters() == 0 {
			t.Fatalf("%s has no parameters", name)
		}
		x := tensor.Randn(tensor.NewRNG(3), 1, 2, 3, 16, 16)
		out := m.Forward(x, true)
		if out.Dim(0) != 2 || out.Dim(1) != 10 {
			t.Fatalf("%s: output shape %v, want (2,10)", name, out.Shape())
		}
		loss, grad := SoftmaxCrossEntropy(out, []int{1, 2})
		if loss <= 0 {
			t.Fatalf("%s: non-positive initial loss %v", name, loss)
		}
		m.ZeroGrad()
		m.Backward(grad)
		nonZero := 0
		for _, p := range m.Params() {
			if p.Grad.CountNonZero() > 0 {
				nonZero++
			}
		}
		if nonZero < len(m.Params())/2 {
			t.Fatalf("%s: only %d/%d params received gradient", name, nonZero, len(m.Params()))
		}
	}
}

// computeInputGrad undoes what NewModel told the twin's first layer, giving
// the replica that still computes the gradient with respect to the images.
func computeInputGrad(m *Model) {
	for _, l := range m.Root.(*Sequential).Layers {
		switch l := l.(type) {
		case *Flatten:
			continue
		case *Linear:
			l.noDx = false
		case *Conv2D:
			l.noDx = false
		case *PatchEmbed:
			l.noDx = false
		}
		return
	}
}

// TestInputGradSkipKeepsParameterGradients checks the skip removes only work
// nobody reads: after one training step every parameter gradient and weight of
// each twin is bit-identical with and without it, while only the twin that
// still computes the input gradient returns one.
func TestInputGradSkipKeepsParameterGradients(t *testing.T) {
	cfg := DefaultLiteConfig(10, 5)
	x := tensor.Randn(tensor.NewRNG(9), 1, 4, 3, 16, 16)
	labels := []int{1, 7, 0, 3}
	for _, name := range []string{"MLP", "VGG19", "ResNet18", "ViT-Base-16"} {
		var dx [2]*tensor.Tensor
		var models [2]*Model
		for i := range models {
			m, err := NewLiteByName(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				computeInputGrad(m)
			}
			opt := NewSGD(0.05, 0.9, 5e-4)
			for step := 0; step < 2; step++ {
				m.ZeroGrad()
				_, grad := SoftmaxCrossEntropy(m.Forward(x, true), labels)
				dx[i] = m.Backward(grad)
				opt.Step(m.Params())
			}
			models[i] = m
		}
		if dx[0] != nil {
			t.Errorf("%s: Backward returned an input gradient of shape %v, want nil", name, dx[0].Shape())
		}
		if dx[1] == nil || !slices.Equal(dx[1].Shape(), x.Shape()) {
			t.Fatalf("%s: the reference replica did not compute the input gradient", name)
		}
		for j, p := range models[0].Params() {
			q := models[1].Params()[j]
			for k := range p.Grad.Data() {
				if math.Float32bits(p.Grad.Data()[k]) != math.Float32bits(q.Grad.Data()[k]) ||
					math.Float32bits(p.W.Data()[k]) != math.Float32bits(q.W.Data()[k]) {
					t.Fatalf("%s: %s[%d] differs with the input-gradient skip", name, p.Name, k)
				}
			}
		}
	}
}

func TestResNet152DeeperThanResNet18(t *testing.T) {
	cfg := DefaultLiteConfig(10, 1)
	r18 := NewResNet18Lite(cfg)
	r152 := NewResNet152Lite(cfg)
	if r152.NumParameters() <= r18.NumParameters() {
		t.Fatalf("ResNet152 twin (%d params) should exceed ResNet18 twin (%d)",
			r152.NumParameters(), r18.NumParameters())
	}
}

func TestSameSeedGivesIdenticalReplicas(t *testing.T) {
	cfg := DefaultLiteConfig(10, 42)
	a := NewVGGLite(cfg)
	b := NewVGGLite(cfg)
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("replica param counts differ")
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			t.Fatalf("param %d name mismatch %q vs %q", i, pa[i].Name, pb[i].Name)
		}
		for j := range pa[i].W.Data() {
			if pa[i].W.Data()[j] != pb[i].W.Data()[j] {
				t.Fatalf("param %s differs at %d", pa[i].Name, j)
			}
		}
	}
}

func TestParameterNamesUnique(t *testing.T) {
	cfg := DefaultLiteConfig(10, 7)
	for _, name := range []string{"VGG19", "ResNet18", "ResNet152", "ViT-Base-16"} {
		m, err := NewLiteByName(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, p := range m.Params() {
			if seen[p.Name] {
				t.Fatalf("%s: duplicate parameter name %s", name, p.Name)
			}
			seen[p.Name] = true
		}
	}
}

// TestMLPLearnsSeparableTask verifies the full train loop machinery: an MLP
// must fit a linearly separable 2-class problem nearly perfectly.
func TestMLPLearnsSeparableTask(t *testing.T) {
	cfg := LiteConfig{InChannels: 1, ImageSize: 4, Classes: 2, Width: 8, Seed: 5}
	m := NewMLP(cfg, 32)
	opt := NewSGD(0.1, 0.9, 0)
	r := tensor.NewRNG(11)

	// Class 0: mean -1 in first half; class 1: mean +1.
	makeBatch := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 1, 4, 4)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			cls := r.Intn(2)
			labels[i] = cls
			mean := float32(-1)
			if cls == 1 {
				mean = 1
			}
			for j := 0; j < 16; j++ {
				x.Data()[i*16+j] = mean + float32(r.NormFloat64()*0.3)
			}
		}
		return x, labels
	}

	var lastAcc float64
	for step := 0; step < 60; step++ {
		x, labels := makeBatch(16)
		out := m.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(out, labels)
		m.ZeroGrad()
		m.Backward(grad)
		opt.Step(m.Params())
		lastAcc = Accuracy(out, labels)
	}
	if lastAcc < 0.95 {
		t.Fatalf("MLP failed to fit separable task: acc %v", lastAcc)
	}
}

func TestSGDMomentumMatchesManualUpdate(t *testing.T) {
	p := NewParameter("w", tensor.FromSlice([]float32{1}, 1))
	opt := NewSGD(0.1, 0.9, 0)
	// Two steps with constant gradient 1.
	p.Grad.Data()[0] = 1
	opt.Step([]*Parameter{p})
	// v1 = 1; w = 1 - 0.1 = 0.9
	if w := p.W.Data()[0]; !almost(w, 0.9) {
		t.Fatalf("step1 w = %v", w)
	}
	p.Grad.Data()[0] = 1
	opt.Step([]*Parameter{p})
	// v2 = 0.9 + 1 = 1.9; w = 0.9 - 0.19 = 0.71
	if w := p.W.Data()[0]; !almost(w, 0.71) {
		t.Fatalf("step2 w = %v", w)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	p := NewParameter("w", tensor.FromSlice([]float32{2}, 1))
	opt := NewSGD(0.5, 0, 0.1)
	opt.Step([]*Parameter{p}) // grad = 0 + 0.1*2 = 0.2; w = 2 - 0.1 = 1.9
	if w := p.W.Data()[0]; !almost(w, 1.9) {
		t.Fatalf("w = %v", w)
	}
}

// TestSGDStepMatchesElementwiseLoops runs the optimizer three steps against
// the loops SGD.Step was before tensor.SGDStep — products written so that no
// compiler fuses them — on a parameter that is no multiple of a register, in
// every combination of momentum and weight decay on and off.
func TestSGDStepMatchesElementwiseLoops(t *testing.T) {
	const n = 77
	for _, c := range [][2]float64{{0.9, 5e-4}, {0.9, 0}, {0, 0.1}, {0, 0}} {
		r := tensor.NewRNG(9)
		p := NewParameter("w", tensor.Randn(r, 1, n))
		opt := NewSGD(0.05, c[0], c[1])
		lr, mom, wd := float32(opt.LR), float32(opt.Momentum), float32(opt.WeightDecay)
		w, v := append([]float32(nil), p.W.Data()...), make([]float32, n)
		for step := 0; step < 3; step++ {
			g := tensor.Randn(r, 1, n).Data()
			copy(p.Grad.Data(), g)
			opt.Step([]*Parameter{p})
			for i := range w {
				if wd != 0 {
					g[i] += float32(wd * w[i])
				}
				if mom != 0 {
					v[i] = float32(mom*v[i]) + g[i]
					w[i] -= float32(lr * v[i])
				} else {
					w[i] -= float32(lr * g[i])
				}
			}
			for i := range w {
				if math.Float32bits(p.W.Data()[i]) != math.Float32bits(w[i]) || math.Float32bits(p.Grad.Data()[i]) != math.Float32bits(g[i]) {
					t.Fatalf("mom %v wd %v step %d: element %d is w %v g %v, want %v %v", mom, wd, step, i, p.W.Data()[i], p.Grad.Data()[i], w[i], g[i])
				}
			}
		}
		if vel := opt.Velocity("w"); (vel != nil) != (mom != 0) {
			t.Fatalf("mom %v: velocity buffer %v", mom, vel)
		}
	}
}

func almost(a, b float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-5
}

func TestCosineLRBoundaries(t *testing.T) {
	if lr := CosineLR(1.0, 0.1, 0, 10); !almost(float32(lr), 1.0) {
		t.Fatalf("start lr = %v", lr)
	}
	if lr := CosineLR(1.0, 0.1, 9, 10); !almost(float32(lr), 0.1) {
		t.Fatalf("end lr = %v", lr)
	}
	mid := CosineLR(1.0, 0.1, 5, 11)
	if mid > 1.0 || mid < 0.1 {
		t.Fatalf("mid lr out of range: %v", mid)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		2, 1, 0,
		0, 3, 1,
		1, 0, 5,
	}, 3, 3)
	if acc := Accuracy(logits, []int{0, 1, 2}); acc != 1 {
		t.Fatalf("acc = %v", acc)
	}
	if acc := Accuracy(logits, []int{1, 1, 2}); acc < 0.66 || acc > 0.67 {
		t.Fatalf("acc = %v", acc)
	}
}

func TestProfileByName(t *testing.T) {
	for _, p := range Profiles() {
		got, err := ProfileByName(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Params != p.Params {
			t.Fatalf("%s params mismatch", p.Name)
		}
		if got.GradBytes() != got.Params*4 {
			t.Fatal("GradBytes must be 4 bytes/param")
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
	if !strings.Contains(ProfileVGG19.Name, "VGG") {
		t.Fatal("profile naming broken")
	}
}

func TestProfileOrderingMatchesPaperSizes(t *testing.T) {
	// The paper's communication volumes: VGG19 > ViT-B/16 > ResNet152 > ResNet18.
	if !(ProfileVGG19.Params > ProfileViTBase16.Params &&
		ProfileViTBase16.Params > ProfileResNet152.Params &&
		ProfileResNet152.Params > ProfileResNet18.Params) {
		t.Fatal("profile parameter ordering wrong")
	}
}

// TestCopyStateFromEvaluatesIdentically: a replica built from another seed and
// handed a trained twin's state through CopyStateFrom evaluates bit for bit
// like the twin — BatchNorm running statistics included — and the copy
// allocates nothing.
func TestCopyStateFromEvaluatesIdentically(t *testing.T) {
	x := tensor.Randn(tensor.NewRNG(9), 1, 6, 3, 16, 16)
	labels := []int{1, 7, 0, 3, 2, 2}
	for _, name := range []string{"MLP", "VGG19", "ResNet18", "ViT-Base-16"} {
		src, err := NewLiteByName(name, DefaultLiteConfig(10, 5))
		if err != nil {
			t.Fatal(err)
		}
		opt := NewSGD(0.1, 0.9, 0)
		for step := 0; step < 3; step++ {
			src.ZeroGrad()
			_, g := SoftmaxCrossEntropy(src.Forward(x, true), labels)
			src.Backward(g)
			opt.Step(src.Params())
		}
		dst, err := NewLiteByName(name, DefaultLiteConfig(10, 6))
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(3, func() { dst.CopyStateFrom(src) }); n > 0 {
			t.Errorf("%s: CopyStateFrom allocates %.1f times", name, n)
		}
		want := src.Forward(x, false).Clone()
		got := dst.Forward(x, false)
		for i, v := range want.Data() {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("%s: replica logit %d is %v, source %v", name, i, got.Data()[i], v)
			}
		}
	}
}
