package gse

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pactrain/internal/nn"
	"pactrain/internal/prune"
	"pactrain/internal/tensor"
)

func testModel(seed uint64) *nn.Model {
	return nn.NewMLP(nn.LiteConfig{InChannels: 1, ImageSize: 4, Classes: 3, Seed: seed}, 16)
}

func backprop(m *nn.Model, seed uint64) {
	r := tensor.NewRNG(seed)
	x := tensor.Randn(r, 1, 4, 1, 4, 4)
	out := m.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy(out, []int{0, 1, 2, 0})
	m.ZeroGrad()
	m.Backward(grad)
}

func TestEnforceZeroesPrunedGrads(t *testing.T) {
	m := testModel(1)
	mask, _ := prune.MagnitudePrune(m, 0.5, prune.GlobalMagnitude)
	mask.Apply(m)
	backprop(m, 2)
	Enforce(m, mask)
	for _, p := range m.Params() {
		keep := mask.Keep[p.Name]
		for i, g := range p.Grad.Data() {
			if !keep[i] && g != 0 {
				t.Fatalf("grad %s[%d] = %v after GSE", p.Name, i, g)
			}
		}
	}
}

// TestEq2Invariant is the paper's Eq. 2 property: after GSE,
// support(grad) ⊆ support(weight), and this holds across optimizer steps.
func TestEq2Invariant(t *testing.T) {
	m := testModel(3)
	mask, _ := prune.MagnitudePrune(m, 0.6, prune.GlobalMagnitude)
	mask.Apply(m)
	opt := nn.NewSGD(0.05, 0.9, 0)
	for step := 0; step < 5; step++ {
		backprop(m, uint64(10+step))
		Enforce(m, mask)
		opt.Step(m.Params())
		ZeroVelocity(opt, m, mask)
		// Pruned weights must remain exactly zero forever.
		for _, p := range m.Params() {
			keep := mask.Keep[p.Name]
			for i, w := range p.W.Data() {
				if !keep[i] && w != 0 {
					t.Fatalf("step %d: pruned weight %s[%d] = %v resurrected", step, p.Name, i, w)
				}
			}
		}
	}
}

// TestWithoutGSEWeightsResurrect documents why GSE is necessary: without
// it, pruned weights become non-zero after one step.
func TestWithoutGSEWeightsResurrect(t *testing.T) {
	m := testModel(4)
	mask, _ := prune.MagnitudePrune(m, 0.6, prune.GlobalMagnitude)
	mask.Apply(m)
	opt := nn.NewSGD(0.05, 0, 0)
	backprop(m, 20)
	opt.Step(m.Params())
	resurrected := 0
	for _, p := range m.Params() {
		keep := mask.Keep[p.Name]
		for i, w := range p.W.Data() {
			if !keep[i] && w != 0 {
				resurrected++
			}
		}
	}
	if resurrected == 0 {
		t.Fatal("expected pruned weights to resurrect without GSE")
	}
}

func TestEnforceByWeightMatchesEnforce(t *testing.T) {
	a, b := testModel(5), testModel(5)
	mask, _ := prune.MagnitudePrune(a, 0.5, prune.GlobalMagnitude)
	mask.Apply(a)
	mask.Apply(b)
	backprop(a, 6)
	backprop(b, 6)
	Enforce(a, mask)
	EnforceByWeight(b)
	// The two forms agree on prunable weight tensors; the literal rule
	// additionally freezes zero-initialized biases (documented divergence).
	for i, p := range a.Params() {
		if p.W.Rank() < 2 {
			continue
		}
		pb := b.Params()[i]
		for j := range p.Grad.Data() {
			if p.Grad.Data()[j] != pb.Grad.Data()[j] {
				t.Fatalf("Enforce and EnforceByWeight diverge at %s[%d]", p.Name, j)
			}
		}
	}
}

// TestEnforceMatchesBoolLoop pins the index-driven passes to the loops over
// Keep they replaced: Enforce, ZeroVelocity and Mask.Apply leave every buffer
// bit-identical, with NaN, ±Inf, −0 and denormals sitting at pruned and kept
// coordinates alike, for every kind of mask — including one whose exported
// Keep was edited after the pruner returned it.
func TestEnforceMatchesBoolLoop(t *testing.T) {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 1e-40, -3, 0, 0.25}
	boolLoop := func(d []float32, keep []bool) []uint32 {
		bits := make([]uint32, len(d))
		for i, v := range d {
			if !keep[i] {
				v = 0
			}
			bits[i] = math.Float32bits(v)
		}
		return bits
	}
	magnitude := func(ratio float64, method prune.Method) func(*nn.Model) *prune.Mask {
		return func(m *nn.Model) *prune.Mask {
			mask, err := prune.MagnitudePrune(m, ratio, method)
			if err != nil {
				t.Fatal(err)
			}
			return mask
		}
	}
	masks := map[string]func(*nn.Model) *prune.Mask{
		"all-keep": prune.NewMask,
		"all-pruned": func(m *nn.Model) *prune.Mask {
			mask := prune.NewMask(m)
			for _, keep := range mask.Keep {
				clear(keep)
			}
			return mask
		},
		"global":    magnitude(0.5, prune.GlobalMagnitude),
		"layerwise": magnitude(0.9, prune.LayerMagnitude),
		"edited": func(m *nn.Model) *prune.Mask {
			mask := magnitude(0.5, prune.GlobalMagnitude)(m)
			for _, keep := range mask.Keep {
				for i := range keep {
					if i%3 == 0 {
						keep[i] = !keep[i]
					}
				}
			}
			return mask
		},
	}
	for name, build := range masks {
		m := testModel(7)
		mask := build(m)
		opt := nn.NewSGD(0.05, 0.9, 0)
		backprop(m, 8)
		opt.Step(m.Params()) // creates the velocity buffers
		want := map[string][]uint32{}
		for _, p := range m.Params() {
			keep := mask.Keep[p.Name]
			for role, d := range map[string][]float32{
				"grad": p.Grad.Data(), "velocity": opt.Velocity(p.Name).Data(), "weight": p.W.Data()} {
				for i := range d {
					if (i+len(role))%2 == 0 {
						d[i] = specials[(i/2)%len(specials)]
					}
				}
				want[p.Name+"."+role] = boolLoop(d, keep)
			}
		}
		Enforce(m, mask)
		ZeroVelocity(opt, m, mask)
		mask.Apply(m)
		for _, p := range m.Params() {
			for role, d := range map[string][]float32{
				"grad": p.Grad.Data(), "velocity": opt.Velocity(p.Name).Data(), "weight": p.W.Data()} {
				for i, w := range want[p.Name+"."+role] {
					if got := math.Float32bits(d[i]); got != w {
						t.Fatalf("%s mask: %s %s[%d] = %#x, the loop over Keep gives %#x", name, role, p.Name, i, got, w)
					}
				}
			}
		}
	}
}

// Property: GSE is idempotent and support(grad) ⊆ keep after enforcement.
func TestPropertyGSEIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		m := testModel(seed)
		mask, _ := prune.MagnitudePrune(m, float64(seed%10)/10, prune.GlobalMagnitude)
		backprop(m, seed+1)
		Enforce(m, mask)
		var snapshot [][]float32
		for _, p := range m.Params() {
			snapshot = append(snapshot, append([]float32(nil), p.Grad.Data()...))
		}
		Enforce(m, mask)
		for pi, p := range m.Params() {
			keep := mask.Keep[p.Name]
			for i, g := range p.Grad.Data() {
				if g != snapshot[pi][i] {
					return false
				}
				if keep != nil && !keep[i] && g != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEnforce(b *testing.B) {
	cfg := nn.DefaultLiteConfig(10, 1)
	for _, name := range []string{"MLP", "ResNet18"} {
		for _, ratio := range []float64{0.5, 0.9} {
			b.Run(fmt.Sprintf("%s/%.0f%%", name, ratio*100), func(b *testing.B) {
				m, err := nn.NewLiteByName(name, cfg)
				if err != nil {
					b.Fatal(err)
				}
				mask, err := prune.MagnitudePrune(m, ratio, prune.GlobalMagnitude)
				if err != nil {
					b.Fatal(err)
				}
				Enforce(m, mask) // the first use derives the coordinate lists
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Enforce(m, mask)
				}
			})
		}
	}
}
