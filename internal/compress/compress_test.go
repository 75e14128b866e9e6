package compress

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"pactrain/internal/tensor"
)

func randGrad(seed uint64, n int) []float32 {
	r := tensor.NewRNG(seed)
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(r.NormFloat64())
	}
	return g
}

func TestFP32RoundTrip(t *testing.T) {
	c := NewFP32()
	g := randGrad(1, 100)
	enc := c.Encode(g)
	out := make([]float32, 100)
	c.Decode(enc, out)
	for i := range g {
		if out[i] != g[i] {
			t.Fatal("fp32 must be exact")
		}
	}
	if c.Wire().Name != "fp32" {
		t.Fatal("fp32 properties wrong")
	}
}

func TestHalfConversionKnownValues(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff}, // max half
	}
	for _, c := range cases {
		if got := Float32ToHalf(c.f); got != c.h {
			t.Fatalf("Float32ToHalf(%v) = %#x, want %#x", c.f, got, c.h)
		}
		if got := HalfToFloat32(c.h); got != c.f {
			t.Fatalf("HalfToFloat32(%#x) = %v, want %v", c.h, got, c.f)
		}
	}
}

func TestHalfSpecials(t *testing.T) {
	if h := Float32ToHalf(float32(math.Inf(1))); h != 0x7c00 {
		t.Fatalf("+inf = %#x", h)
	}
	if h := Float32ToHalf(float32(math.Inf(-1))); h != 0xfc00 {
		t.Fatalf("-inf = %#x", h)
	}
	if !math.IsNaN(float64(HalfToFloat32(Float32ToHalf(float32(math.NaN()))))) {
		t.Fatal("NaN must round-trip to NaN")
	}
	if h := Float32ToHalf(1e20); h != 0x7c00 {
		t.Fatalf("overflow should produce inf, got %#x", h)
	}
	// Subnormal half round-trips approximately.
	small := float32(3e-6)
	back := HalfToFloat32(Float32ToHalf(small))
	if math.Abs(float64(back-small))/float64(small) > 0.2 {
		t.Fatalf("subnormal round-trip %v → %v", small, back)
	}
}

// Property: fp16 round-trip error is within half-precision ULP for normal
// values.
func TestPropertyHalfRoundTripPrecision(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		v := float32(r.NormFloat64())
		back := HalfToFloat32(Float32ToHalf(v))
		if v == 0 {
			return back == 0
		}
		rel := math.Abs(float64(back-v)) / math.Abs(float64(v))
		return rel < 1.0/1024 // 2^-10 mantissa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFP16EncodeIsHalfPrecision(t *testing.T) {
	c := NewFP16()
	g := []float32{1.0002441, 3.14159, -2.71828}
	enc := c.Encode(g)
	exact := true
	for i, v := range enc {
		rel := math.Abs(float64(v-g[i])) / math.Abs(float64(g[i]))
		if rel > 1.0/1024 {
			t.Fatalf("fp16 error too large at %d: %v", i, rel)
		}
		exact = exact && v == g[i]
	}
	if exact {
		t.Fatal("fp16 should introduce some quantization error")
	}
}

func TestTopKSelectsLargest(t *testing.T) {
	c := NewTopK(0.4)
	g := []float32{0.1, -5, 0.2, 3, -0.05}
	p := c.Encode(g)
	if len(p.Values) != 2 {
		t.Fatalf("topk-0.4 of 5 should keep 2, got %d", len(p.Values))
	}
	// Largest magnitudes are -5 (idx 1) and 3 (idx 3); indices ascending.
	if p.Indices[0] != 1 || p.Indices[1] != 3 {
		t.Fatalf("indices %v", p.Indices)
	}
	if p.Values[0] != -5 || p.Values[1] != 3 {
		t.Fatalf("values %v", p.Values)
	}
	out := make([]float32, 5)
	c.DecodeSum(p, out)
	if out[1] != -5 || out[3] != 3 || out[0] != 0 {
		t.Fatalf("decode %v", out)
	}
}

func TestTopKKeepsAtLeastOne(t *testing.T) {
	c := NewTopK(0.001)
	p := c.Encode([]float32{1, 2, 3})
	if len(p.Values) != 1 {
		t.Fatalf("expected 1 kept coordinate, got %d", len(p.Values))
	}
}

func TestTopKInvalidRatioPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTopK(0)
}

func TestRandomKUnbiasedInExpectation(t *testing.T) {
	n := 50
	g := randGrad(3, n)
	sum := make([]float64, n)
	trials := 3000
	c := NewRandomK(0.2, 7)
	for tr := 0; tr < trials; tr++ {
		p := c.Encode(g)
		for i, j := range p.Indices {
			sum[j] += float64(p.Values[i])
		}
	}
	for i := range g {
		mean := sum[i] / float64(trials)
		if math.Abs(mean-float64(g[i])) > 0.25 {
			t.Fatalf("randomk biased at %d: mean %v vs true %v", i, mean, g[i])
		}
	}
}

func TestDGCAccumulatesUnsent(t *testing.T) {
	c := NewDGC(0.2, 0.0) // no momentum: v accumulates raw gradients
	g1 := []float32{10, 1, 1, 1, 1}
	p1 := c.Encode(g1)
	if len(p1.Values) != 1 || p1.Indices[0] != 0 {
		t.Fatalf("first round should send coordinate 0: %+v", p1)
	}
	// Coordinate 0 was cleared; others accumulated. After enough rounds a
	// small coordinate must eventually win.
	won := false
	for i := 0; i < 20; i++ {
		p := c.Encode([]float32{0.1, 1, 1, 1, 1})
		if p.Indices[0] != 0 {
			won = true
			break
		}
	}
	if !won {
		t.Fatal("DGC accumulation never promoted small coordinates")
	}
}

func TestDGCLengthChangePanics(t *testing.T) {
	c := NewDGC(0.5, 0.9)
	c.Encode([]float32{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Encode([]float32{1, 2, 3})
}

// TestNonZeroRoundTripsExactly pins Zen's codec: the payload holds every
// non-zero in ascending index order, −0 is dropped like +0, an all-zero
// bucket sends nothing, and DecodeSum rebuilds the gradient bit for bit.
func TestNonZeroRoundTripsExactly(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	c := NewNonZero()
	g := []float32{0, 3, negZero, -1e-45, 0, nan, 2, negZero}
	p := c.Encode(g)
	if want := []int32{1, 3, 5, 6}; !slices.Equal(p.Indices, want) || len(p.Values) != len(want) {
		t.Fatalf("indices %v (%d values), want %v", p.Indices, len(p.Values), want)
	}
	out := make([]float32, len(g))
	c.DecodeSum(p, out)
	for i := range g {
		want := g[i]
		if want == 0 {
			want = 0 // a dropped ±0 decodes to the +0 out started with
		}
		if math.Float32bits(out[i]) != math.Float32bits(want) {
			t.Fatalf("coordinate %d: decoded %v, want %v", i, out[i], want)
		}
	}
	if p := c.Encode([]float32{0, negZero, 0}); len(p.Values) != 0 || len(p.Indices) != 0 {
		t.Fatalf("all-zero bucket sent %+v", p)
	}
}

func TestErrorFeedbackPreservesMass(t *testing.T) {
	inner := NewTopK(0.25)
	c := WrapErrorFeedback(inner)
	g := []float32{4, 3, 2, 1}
	// Round 1 sends {4}; residual keeps 3,2,1.
	p1 := c.Encode(g)
	if len(p1.Values) != 1 || p1.Values[0] != 4 {
		t.Fatalf("round 1: %+v", p1)
	}
	// Round 2 with zero grad: residual 3 should now be sent.
	p2 := c.Encode([]float32{0, 0, 0, 0})
	if len(p2.Values) != 1 || p2.Values[0] != 3 || p2.Indices[0] != 1 {
		t.Fatalf("round 2 should send the residual 3: %+v", p2)
	}
	// Total transmitted over many zero rounds approaches the original mass.
	total := float64(p1.Values[0] + p2.Values[0])
	for i := 0; i < 10; i++ {
		p := c.Encode([]float32{0, 0, 0, 0})
		for _, v := range p.Values {
			total += float64(v)
		}
	}
	if math.Abs(total-10) > 1e-5 {
		t.Fatalf("error feedback lost mass: transmitted %v of 10", total)
	}
}

// TestTernGradUnbiased verifies Eq. 3: E[ternarize(g)] = g.
func TestTernGradUnbiased(t *testing.T) {
	g := []float32{0.8, -0.3, 0.05, -0.9, 0.0}
	rng := tensor.NewRNG(123)
	n := len(g)
	sum := make([]float64, n)
	trials := 20000
	out := make([]float32, n)
	for tr := 0; tr < trials; tr++ {
		Ternarize(rng, g, out)
		for i, v := range out {
			sum[i] += float64(v)
		}
	}
	for i := range g {
		mean := sum[i] / float64(trials)
		if math.Abs(mean-float64(g[i])) > 0.02 {
			t.Fatalf("ternary biased at %d: mean %v vs %v", i, mean, g[i])
		}
	}
}

func TestTernGradValuesAreTernary(t *testing.T) {
	c := NewTernGrad(5)
	g := randGrad(9, 200)
	enc := c.Encode(g)
	var s float32
	for _, v := range g {
		if a := abs32(v); a > s {
			s = a
		}
	}
	for _, v := range enc {
		if v != 0 && v != s && v != -s {
			t.Fatalf("non-ternary value %v (scale %v)", v, s)
		}
	}
}

// ternarizeScalar is Ternarize as a plain branching loop, kept as the
// oracle the branch-free kernel is fuzzed against.
func ternarizeScalar(rng *tensor.RNG, grad []float32, out []float32) {
	s := tensor.MaxAbs(grad)
	if s == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	for i, v := range grad {
		p := float64(abs32(v) / s)
		if rng.Float64() < p {
			if v >= 0 {
				out[i] = s
			} else {
				out[i] = -s
			}
		} else {
			out[i] = 0
		}
	}
}

// FuzzTernarizeMatchesScalar checks the branch-free Ternarize against the
// branching loop bit for bit — output and the RNG state it leaves — on raw
// float32 patterns. The seed corpus under testdata holds the named edges
// (±0, NaN, ±Inf, subnormals, an all-zero input where s == 0, a lone
// non-zero, out aliasing grad).
func FuzzTernarizeMatchesScalar(f *testing.F) {
	f.Add(uint64(1), false, []byte("\x00\x00\x00\x80\x00\x00\xc0\x7f\x01\x00\x00\x00\xcd\xcc\x4c\xbe"))
	f.Fuzz(func(t *testing.T, seed uint64, alias bool, raw []byte) {
		grad := make([]float32, len(raw)/4)
		for i := range grad {
			grad[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		want := make([]float32, len(grad))
		wantRNG := tensor.NewRNG(seed)
		ternarizeScalar(wantRNG, grad, want)
		got := make([]float32, len(grad))
		for i := range got {
			got[i] = 7 // stale output must be overwritten
		}
		in := grad
		if alias {
			copy(got, grad)
			in = got
		}
		gotRNG := tensor.NewRNG(seed)
		Ternarize(gotRNG, in, got)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("element %d (%#x): got %#x, scalar loop %#x", i,
					math.Float32bits(grad[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
		if gotRNG.Uint64() != wantRNG.Uint64() {
			t.Fatal("RNG state differs from the scalar loop's afterwards")
		}
	})
}

func TestTernarizeZeroVector(t *testing.T) {
	out := []float32{1, 2, 3}
	Ternarize(tensor.NewRNG(1), []float32{0, 0, 0}, out)
	for _, v := range out {
		if v != 0 {
			t.Fatal("zero gradient must ternarize to zero")
		}
	}
}

func TestQSGDUnbiasedAndQuantized(t *testing.T) {
	c := NewQSGD(4, 11)
	g := []float32{0.5, -0.25, 1.0}
	sum := make([]float64, 3)
	trials := 20000
	for tr := 0; tr < trials; tr++ {
		enc := c.Encode(g)
		for i, v := range enc {
			sum[i] += float64(v)
		}
	}
	for i := range g {
		mean := sum[i] / float64(trials)
		if math.Abs(mean-float64(g[i])) > 0.02 {
			t.Fatalf("qsgd biased at %d: %v vs %v", i, mean, g[i])
		}
	}
}

func TestTHCSharedLattice(t *testing.T) {
	c := NewTHC(16)
	g := []float32{0.5, -0.5, 0.33, -0.99, 1.0}
	enc := c.Encode(g)
	// All outputs must lie on the lattice spanning [-1, 1] with 15 steps.
	step := 2.0 / 15
	for _, v := range enc {
		q := (float64(v) + 1) / step
		if math.Abs(q-math.Round(q)) > 1e-5 {
			t.Fatalf("value %v not on lattice", v)
		}
	}
	if w := c.Wire(); w.Name != "thc" || w.BytesPerElement != 0.5 {
		t.Fatalf("THC wire %+v, want thc at 4 bits per element", w)
	}
}

// maskIndices converts a boolean keep-mask into the ascending index list
// MaskCompact consumes.
func maskIndices(keep []bool) []int32 {
	var idx []int32
	for i, k := range keep {
		if k {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

func TestMaskCompactRoundTrip(t *testing.T) {
	m := NewMaskCompact(false, 1)
	keep := []bool{true, false, false, true, true, false}
	m.SetMask(maskIndices(keep), 6)
	g := []float32{1, 99, 98, 4, 5, 97} // pruned coords carry garbage
	enc := m.Encode(g)
	if len(enc) != 3 {
		t.Fatalf("compact length %d, want 3", len(enc))
	}
	if enc[0] != 1 || enc[1] != 4 || enc[2] != 5 {
		t.Fatalf("compact values %v", enc)
	}
	out := make([]float32, 6)
	m.Decode(enc, out)
	want := []float32{1, 0, 0, 4, 5, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("decode %v, want %v", out, want)
		}
	}
}

func TestMaskCompactEncodeSparse(t *testing.T) {
	m := NewMaskCompact(false, 1)
	keep := []bool{true, false, false, true, true, false}
	m.SetMask(maskIndices(keep), 6)
	vals, idx := m.EncodeSparse([]float32{1, 99, 98, 0, 5, 97}, nil)
	if len(vals) != 3 || len(idx) != 3 {
		t.Fatalf("COO lengths %d/%d, want 3/3", len(vals), len(idx))
	}
	// In-mask zeros ride along: the payload length is always NNZ, so every
	// replica ships the same size and the controller's quote is exact.
	if vals[0] != 1 || vals[1] != 0 || vals[2] != 5 {
		t.Fatalf("COO values %v", vals)
	}
	if idx[0] != 0 || idx[1] != 3 || idx[2] != 4 {
		t.Fatalf("COO indices %v", idx)
	}
}

// TestMaskCompactEmptyMask covers fully pruned buckets: an empty mask is
// valid, encodes to an empty payload, and decodes to all zeros.
func TestMaskCompactEmptyMask(t *testing.T) {
	m := NewMaskCompact(false, 1)
	m.SetMask(nil, 4)
	enc := m.Encode([]float32{1, 2, 3, 4})
	if len(enc) != 0 {
		t.Fatalf("empty mask payload %v", enc)
	}
	out := []float32{9, 9, 9, 9}
	m.Decode(enc, out)
	for _, v := range out {
		if v != 0 {
			t.Fatal("empty mask must decode to zeros")
		}
	}
}

func TestMaskCompactValidation(t *testing.T) {
	m := NewMaskCompact(false, 1)
	for _, fn := range []func(){
		func() { m.SetMask([]int32{3, 1}, 6) },             // not ascending
		func() { m.SetMask([]int32{1, 9}, 6) },             // out of range
		func() { m.Encode([]float32{1, 2}) },               // no mask
		func() { m.SetMask([]int32{0}, 3); m.Encode(nil) }, // wrong length
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMaskCompactTernaryStaysOnSupport(t *testing.T) {
	m := NewMaskCompact(true, 42)
	keep := []bool{true, false, true, false}
	m.SetMask(maskIndices(keep), 4)
	g := []float32{0.9, 0.5, -0.2, 0.7}
	enc := m.Encode(g)
	out := make([]float32, 4)
	m.Decode(enc, out)
	if out[1] != 0 || out[3] != 0 {
		t.Fatal("pruned coordinates must stay zero after ternary decode")
	}
}

func TestByNameRegistry(t *testing.T) {
	names := []string{"all-reduce", "fp16", "terngrad", "qsgd", "thc",
		"topk-0.1", "topk-0.01", "randomk-0.1", "dgc-0.01"}
	for _, n := range names {
		c, err := ByName(n, 1)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if c.Wire().Name == "" {
			t.Fatalf("%s: empty wire name", n)
		}
	}
	if _, err := ByName("bogus", 1); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

// Property: MaskCompact Encode∘Decode is a projection onto the mask support.
func TestPropertyMaskCompactProjection(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 5 + r.Intn(50)
		keep := make([]bool, n)
		kept := 0
		for i := range keep {
			if r.Float64() < 0.5 {
				keep[i] = true
				kept++
			}
		}
		if kept == 0 {
			keep[0] = true
		}
		m := NewMaskCompact(false, seed)
		m.SetMask(maskIndices(keep), n)
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(r.NormFloat64())
		}
		out := make([]float32, n)
		m.Decode(m.Encode(g), out)
		for i := range g {
			if keep[i] && out[i] != g[i] {
				return false
			}
			if !keep[i] && out[i] != 0 {
				return false
			}
		}
		// Idempotence: projecting again changes nothing.
		out2 := make([]float32, n)
		m.Decode(m.Encode(out), out2)
		for i := range out {
			if out2[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopK payload magnitudes dominate all unselected magnitudes.
func TestPropertyTopKDominance(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 10 + r.Intn(100)
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(r.NormFloat64())
		}
		c := NewTopK(0.2)
		p := c.Encode(g)
		selected := make(map[int32]bool)
		minSel := float32(math.Inf(1))
		for i, j := range p.Indices {
			selected[j] = true
			if a := abs32(p.Values[i]); a < minSel {
				minSel = a
			}
		}
		for i, v := range g {
			if !selected[int32(i)] && abs32(v) > minSel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
