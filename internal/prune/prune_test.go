package prune

import (
	"math"
	"testing"
	"testing/quick"

	"pactrain/internal/nn"
	"pactrain/internal/tensor"
)

func testModel(seed uint64) *nn.Model {
	return nn.NewMLP(nn.LiteConfig{InChannels: 1, ImageSize: 4, Classes: 3, Seed: seed}, 16)
}

func TestNewMaskKeepsEverything(t *testing.T) {
	m := testModel(1)
	mk := NewMask(m)
	if mk.Sparsity() != 0 {
		t.Fatalf("fresh mask sparsity %v", mk.Sparsity())
	}
	kept, total := mk.Count()
	if kept != total || total != m.NumParameters() {
		t.Fatalf("count %d/%d vs %d params", kept, total, m.NumParameters())
	}
}

func TestGlobalMagnitudeRatio(t *testing.T) {
	m := testModel(2)
	for _, ratio := range []float64{0.1, 0.5, 0.9} {
		mk, err := MagnitudePrune(m, ratio, GlobalMagnitude)
		if err != nil {
			t.Fatal(err)
		}
		// Only weight matrices are prunable; sparsity is measured over all
		// params, so compute the prunable-only sparsity.
		prunedPrunable, totalPrunable := 0, 0
		for _, p := range m.Params() {
			if !prunable(p) {
				continue
			}
			for _, k := range mk.Keep[p.Name] {
				totalPrunable++
				if !k {
					prunedPrunable++
				}
			}
		}
		got := float64(prunedPrunable) / float64(totalPrunable)
		if math.Abs(got-ratio) > 0.02 {
			t.Fatalf("ratio %v: pruned %v of prunable weights", ratio, got)
		}
	}
}

func TestGlobalMagnitudePrunesSmallest(t *testing.T) {
	m := testModel(3)
	mk, err := MagnitudePrune(m, 0.5, GlobalMagnitude)
	if err != nil {
		t.Fatal(err)
	}
	// Every pruned weight must be ≤ every kept weight in magnitude
	// (within the shared global threshold).
	var maxPruned, minKept float32 = 0, math.MaxFloat32
	for _, p := range m.Params() {
		if !prunable(p) {
			continue
		}
		keep := mk.Keep[p.Name]
		for i, v := range p.W.Data() {
			a := float32(math.Abs(float64(v)))
			if keep[i] {
				if a < minKept {
					minKept = a
				}
			} else if a > maxPruned {
				maxPruned = a
			}
		}
	}
	if maxPruned > minKept {
		t.Fatalf("pruned weight %v exceeds kept weight %v", maxPruned, minKept)
	}
}

func TestLayerMagnitudeIndependentPerLayer(t *testing.T) {
	m := testModel(4)
	mk, err := MagnitudePrune(m, 0.5, LayerMagnitude)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		if !prunable(p) {
			continue
		}
		pruned := 0
		for _, k := range mk.Keep[p.Name] {
			if !k {
				pruned++
			}
		}
		got := float64(pruned) / float64(p.NumElements())
		if math.Abs(got-0.5) > 0.05 {
			t.Fatalf("param %s pruned %v, want ≈0.5", p.Name, got)
		}
	}
}

func TestBiasesExemptFromPruning(t *testing.T) {
	m := testModel(5)
	mk, err := MagnitudePrune(m, 0.9, GlobalMagnitude)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		if prunable(p) {
			continue
		}
		for i, k := range mk.Keep[p.Name] {
			if !k {
				t.Fatalf("non-prunable param %s pruned at %d", p.Name, i)
			}
		}
	}
}

func TestApplyZeroesWeights(t *testing.T) {
	m := testModel(6)
	mk, _ := MagnitudePrune(m, 0.5, GlobalMagnitude)
	mk.Apply(m)
	for _, p := range m.Params() {
		keep := mk.Keep[p.Name]
		for i, v := range p.W.Data() {
			if !keep[i] && v != 0 {
				t.Fatalf("pruned weight %s[%d] = %v, want 0", p.Name, i, v)
			}
		}
	}
}

// TestMagnitudePruneKeepsNaN pins what a diverged weight does to the mask: a
// NaN ranks above every number, so it is kept and the smallest finite weights
// are pruned in its place — and a tensor without NaN is masked exactly as the
// float comparison masks it.
func TestMagnitudePruneKeepsNaN(t *testing.T) {
	nan := float32(math.NaN())
	for _, tc := range []struct {
		w    []float32
		want []bool
	}{
		{[]float32{3, nan, -1, 0.5, -2, 4, 0.25, 8}, []bool{false, true, false, false, false, true, false, true}},
		{[]float32{nan, -nan, 1, 2, 3, 4, 5, 6}, []bool{true, true, false, false, false, false, false, true}},
		{[]float32{3, 7, -1, 0.5, -2, 4, 0.25, 8}, []bool{false, true, false, false, false, true, false, true}},
		// Weights tied with the threshold (magnitude 1) go with it.
		{[]float32{1, -1, 1, 0, 0, -1, 0, 5}, []bool{false, false, false, false, false, false, false, true}},
	} {
		for _, method := range []Method{GlobalMagnitude, LayerMagnitude} {
			p := nn.NewParameter("w", tensor.FromSlice(append([]float32(nil), tc.w...), 2, 4))
			mk, err := MagnitudePrune(nn.NewModel("one", paramLayer{p}), 0.5, method)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range tc.want {
				if mk.Keep["w"][i] != want {
					t.Errorf("%v of %v: keep = %v, want %v", method, tc.w, mk.Keep["w"], tc.want)
					break
				}
			}
		}
	}
}

// paramLayer is a layer that only carries parameters.
type paramLayer struct{ p *nn.Parameter }

func (l paramLayer) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor { return x }
func (l paramLayer) Backward(g *tensor.Tensor) *tensor.Tensor        { return g }
func (l paramLayer) Params() []*nn.Parameter                         { return []*nn.Parameter{l.p} }

func TestInvalidRatio(t *testing.T) {
	m := testModel(7)
	if _, err := MagnitudePrune(m, 1.0, GlobalMagnitude); err == nil {
		t.Fatal("ratio 1.0 must be rejected")
	}
	if _, err := MagnitudePrune(m, -0.1, GlobalMagnitude); err == nil {
		t.Fatal("negative ratio must be rejected")
	}
}

func TestDeterministicAcrossReplicas(t *testing.T) {
	a, b := testModel(8), testModel(8)
	ma, _ := MagnitudePrune(a, 0.6, GlobalMagnitude)
	mb, _ := MagnitudePrune(b, 0.6, GlobalMagnitude)
	for name, ka := range ma.Keep {
		kb := mb.Keep[name]
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("masks diverge at %s[%d]", name, i)
			}
		}
	}
}

// TestGraSPQuadratic validates the HVP finite-difference machinery on a
// model where the Hessian is known: for loss L = ½‖Wx‖² summed over a
// batch, the score of Eq. 4 is computable and must correlate strongly with
// the analytic value. Here we simply verify the scores are finite, not all
// equal, and that GraSPPrune respects the ratio.
func TestGraSPQuadratic(t *testing.T) {
	m := testModel(9)
	r := tensor.NewRNG(4)
	x := tensor.Randn(r, 1, 8, 1, 4, 4)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	computeGrads := func() {
		m.ZeroGrad()
		out := m.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy(out, labels)
		m.Backward(grad)
	}
	before := make(map[string][]float32)
	for _, p := range m.Params() {
		before[p.Name] = append([]float32(nil), p.W.Data()...)
	}
	scores := GraSPScores(m, computeGrads)
	// Weights must be restored exactly enough to continue training.
	for _, p := range m.Params() {
		for i, v := range p.W.Data() {
			if math.Abs(float64(v-before[p.Name][i])) > 1e-3 {
				t.Fatalf("GraSP did not restore %s[%d]: %v vs %v", p.Name, i, v, before[p.Name][i])
			}
		}
	}
	distinct := map[float64]bool{}
	for _, s := range scores {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite GraSP score")
			}
			distinct[v] = true
		}
	}
	if len(distinct) < 10 {
		t.Fatal("GraSP scores suspiciously uniform")
	}

	mk, err := GraSPPrune(m, 0.5, computeGrads)
	if err != nil {
		t.Fatal(err)
	}
	pruned, total := 0, 0
	for _, p := range m.Params() {
		if !prunable(p) {
			continue
		}
		for _, k := range mk.Keep[p.Name] {
			total++
			if !k {
				pruned++
			}
		}
	}
	got := float64(pruned) / float64(total)
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("GraSP pruned %v, want ≈0.5", got)
	}
}

// Property: higher pruning ratios produce monotonically sparser masks.
func TestPropertyRatioMonotone(t *testing.T) {
	m := testModel(11)
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		r1 := 0.1 + 0.4*r.Float64()
		r2 := r1 + 0.3
		m1, err1 := MagnitudePrune(m, r1, GlobalMagnitude)
		m2, err2 := MagnitudePrune(m, r2, GlobalMagnitude)
		if err1 != nil || err2 != nil {
			return false
		}
		return m2.Sparsity() >= m1.Sparsity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: pruned masks are subsets — a weight pruned at a low ratio stays
// pruned at any higher ratio (threshold monotonicity of magnitude pruning).
func TestPropertyMaskNesting(t *testing.T) {
	m := testModel(12)
	lo, _ := MagnitudePrune(m, 0.3, GlobalMagnitude)
	hi, _ := MagnitudePrune(m, 0.7, GlobalMagnitude)
	for name, keepLo := range lo.Keep {
		keepHi := hi.Keep[name]
		for i := range keepLo {
			if !keepLo[i] && keepHi[i] {
				t.Fatalf("weight %s[%d] pruned at 0.3 but kept at 0.7", name, i)
			}
		}
	}
}

func TestMethodString(t *testing.T) {
	if GlobalMagnitude.String() != "global-magnitude" ||
		LayerMagnitude.String() != "layer-magnitude" ||
		GraSP.String() != "grasp" {
		t.Fatal("Method.String broken")
	}
}

func BenchmarkMagnitudePrune(b *testing.B) {
	m := nn.NewMLP(nn.DefaultLiteConfig(10, 1), 64)
	for _, method := range []Method{GlobalMagnitude, LayerMagnitude} {
		b.Run(method.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MagnitudePrune(m, 0.5, method); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
