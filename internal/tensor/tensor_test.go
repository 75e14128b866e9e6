package tensor

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape: %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestScalarTensor(t *testing.T) {
	s := New()
	if s.Len() != 1 {
		t.Fatalf("scalar Len = %d, want 1", s.Len())
	}
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetOffset(t *testing.T) {
	x := New(2, 3)
	x.Set(5, 1, 2)
	if x.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v, want 5", x.At(1, 2))
	}
	if x.Offset(1, 2) != 5 {
		t.Fatalf("Offset(1,2) = %d, want 5", x.Offset(1, 2))
	}
	if x.Data()[5] != 5 {
		t.Fatal("Set did not write row-major position")
	}
}

func TestOffsetOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Data()[0] = 99
	if x.Data()[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 4)
	y := x.Reshape(2, 2)
	y.Set(9, 0, 1)
	if x.Data()[1] != 9 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reshaping to wrong volume")
		}
	}()
	x.Reshape(3)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	sum := Add(a, b)
	if sum.Data()[0] != 5 || sum.Data()[2] != 9 {
		t.Fatalf("Add wrong: %v", sum.Data())
	}
	diff := Sub(b, a)
	if diff.Data()[1] != 3 {
		t.Fatalf("Sub wrong: %v", diff.Data())
	}
	AxpyInto(a, 2, b)
	if a.Data()[0] != 9 {
		t.Fatalf("Axpy wrong: %v", a.Data())
	}
}

func TestScaleApplyFillZero(t *testing.T) {
	x := FromSlice([]float32{1, -2, 3}, 3)
	x.ScaleInPlace(2)
	if x.Data()[1] != -4 {
		t.Fatal("ScaleInPlace wrong")
	}
	x.Apply(func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	if x.Data()[1] != 0 || x.Data()[2] != 6 {
		t.Fatal("Apply wrong")
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero wrong")
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{3, -1, 4, -1, 5}, 5)
	if x.Sum() != 10 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if v, i := x.Max(); v != 5 || i != 4 {
		t.Fatalf("Max = %v@%d", v, i)
	}
	if v, i := x.Min(); v != -1 || i != 1 {
		t.Fatalf("Min = %v@%d", v, i)
	}
	if MaxAbs(x.Data()) != 5 {
		t.Fatalf("MaxAbs = %v", MaxAbs(x.Data()))
	}
}

func TestSparsityAndNonZero(t *testing.T) {
	x := FromSlice([]float32{0, 1, 0, 2, 0}, 5)
	if x.CountNonZero() != 2 {
		t.Fatalf("CountNonZero = %d", x.CountNonZero())
	}
	if !almostEqual(x.Sparsity(), 0.6, 1e-12) {
		t.Fatalf("Sparsity = %v", x.Sparsity())
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data()[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data()[i], v)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// TestMatMulTransposedVariants checks AᵀB and ABᵀ kernels against explicit
// transposes followed by plain MatMul.
func TestMatMulTransposedVariants(t *testing.T) {
	r := NewRNG(7)
	a := Randn(r, 1, 4, 3) // (k=4, m=3) for AᵀB
	b := Randn(r, 1, 4, 5) // (k=4, n=5)
	got := New(3, 5)
	MatMulTransAInto(got, a, b)
	want := MatMul(Transpose(a), b)
	for i := range want.Data() {
		if !almostEqual(float64(got.Data()[i]), float64(want.Data()[i]), 1e-4) {
			t.Fatalf("TransA[%d] = %v want %v", i, got.Data()[i], want.Data()[i])
		}
	}

	a2 := Randn(r, 1, 3, 4) // (m=3, k=4) for ABᵀ
	b2 := Randn(r, 1, 5, 4) // (n=5, k=4)
	got2 := New(3, 5)
	MatMulTransBInto(got2, a2, Transpose(b2))
	want2 := MatMul(a2, Transpose(b2))
	for i := range want2.Data() {
		if !almostEqual(float64(got2.Data()[i]), float64(want2.Data()[i]), 1e-4) {
			t.Fatalf("TransB[%d] = %v want %v", i, got2.Data()[i], want2.Data()[i])
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("Transpose shape %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatal("Transpose values wrong")
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no padding: Im2Col is a reshape.
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	cols := Im2Col(x, 1, 1, 1, 0)
	if cols.Dim(0) != 4 || cols.Dim(1) != 1 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	for i, v := range []float32{1, 2, 3, 4} {
		if cols.Data()[i] != v {
			t.Fatalf("cols[%d] = %v", i, cols.Data()[i])
		}
	}
}

func TestIm2ColKnownPatch(t *testing.T) {
	// 3x3 input, 2x2 kernel, stride 1, no pad: 4 output positions.
	x := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	cols := Im2Col(x, 2, 2, 1, 0)
	if cols.Dim(0) != 4 || cols.Dim(1) != 4 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	wantRow0 := []float32{1, 2, 4, 5}
	for i, v := range wantRow0 {
		if cols.At(0, i) != v {
			t.Fatalf("row0[%d] = %v want %v", i, cols.At(0, i), v)
		}
	}
	wantRow3 := []float32{5, 6, 8, 9}
	for i, v := range wantRow3 {
		if cols.At(3, i) != v {
			t.Fatalf("row3[%d] = %v want %v", i, cols.At(3, i), v)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	x := Ones(1, 1, 2, 2)
	cols := Im2Col(x, 3, 3, 1, 1)
	// Output is 2x2 positions; the corner position (0,0) covers 4 padded
	// cells along the top/left border.
	if cols.Dim(0) != 4 || cols.Dim(1) != 9 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	// First row corresponds to center (0,0): padded row 0 and col 0 zero.
	row := cols.Data()[:9]
	wantZero := []int{0, 1, 2, 3, 6}
	for _, i := range wantZero {
		if row[i] != 0 {
			t.Fatalf("expected pad zero at %d, got %v", i, row[i])
		}
	}
	if row[4] != 1 || row[5] != 1 || row[7] != 1 || row[8] != 1 {
		t.Fatalf("expected ones in interior, got %v", row)
	}
}

// TestCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)>, the defining
// adjoint property that makes Col2Im the correct gradient of Im2Col.
func TestCol2ImAdjoint(t *testing.T) {
	r := NewRNG(42)
	n, c, h, w := 2, 3, 5, 5
	kh, kw, stride, pad := 3, 3, 2, 1
	x := Randn(r, 1, n, c, h, w)
	cols := Im2Col(x, kh, kw, stride, pad)
	y := Randn(r, 1, cols.Shape()...)
	lhs := Dot(cols, y)
	back := Col2Im(y, n, c, h, w, kh, kw, stride, pad)
	rhs := Dot(x, back)
	if !almostEqual(lhs, rhs, 1e-3*math.Max(1, math.Abs(lhs))) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestConvOutSize(t *testing.T) {
	if ConvOutSize(32, 3, 1, 1) != 32 {
		t.Fatal("same-pad conv should preserve size")
	}
	if ConvOutSize(32, 2, 2, 0) != 16 {
		t.Fatal("2x2 stride-2 pool should halve size")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(124)
	same := true
	a2 := NewRNG(123)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(2024)
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("variance = %v, want ≈1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestKaimingXavierScale(t *testing.T) {
	r := NewRNG(11)
	w := KaimingInit(r, 100, 100, 100)
	var sumSq float64
	for _, v := range w.Data() {
		sumSq += float64(v) * float64(v)
	}
	std := math.Sqrt(sumSq / float64(w.Len()))
	want := math.Sqrt(2.0 / 100)
	if math.Abs(std-want)/want > 0.1 {
		t.Fatalf("kaiming std = %v, want ≈%v", std, want)
	}
	x := XavierInit(r, 50, 50, 50, 50)
	limit := math.Sqrt(6.0 / 100)
	if mx := float64(MaxAbs(x.Data())); mx > limit+1e-6 {
		t.Fatalf("xavier exceeds limit: %v > %v", mx, limit)
	}
}

// Property: Add is commutative and Sub(Add(a,b), b) == a.
func TestPropertyAddSubRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		// Keep values finite and modest to avoid float cancellation noise.
		for i := range vals {
			if math.IsNaN(float64(vals[i])) || math.IsInf(float64(vals[i]), 0) {
				vals[i] = 1
			}
			if vals[i] > 1e6 {
				vals[i] = 1e6
			}
			if vals[i] < -1e6 {
				vals[i] = -1e6
			}
		}
		a := FromSlice(append([]float32(nil), vals...), len(vals))
		b := FromSlice(append([]float32(nil), vals...), len(vals))
		b.ScaleInPlace(0.5)
		ab := Add(a, b)
		ba := Add(b, a)
		for i := range ab.Data() {
			if ab.Data()[i] != ba.Data()[i] {
				return false
			}
		}
		round := Sub(ab, b)
		for i := range round.Data() {
			if math.Abs(float64(round.Data()[i]-a.Data()[i])) > 1e-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over addition: A(B+C) == AB + AC.
func TestPropertyMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 2+r.Intn(4), 2+r.Intn(4), 2+r.Intn(4)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		c := Randn(r, 1, k, n)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		for i := range left.Data() {
			if math.Abs(float64(left.Data()[i]-right.Data()[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Im2Col/Col2Im adjointness holds for random geometries.
func TestPropertyIm2ColAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(2)
		c := 1 + r.Intn(3)
		h := 3 + r.Intn(4)
		w := 3 + r.Intn(4)
		kh := 1 + r.Intn(3)
		kw := 1 + r.Intn(3)
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		if h+2*pad < kh || w+2*pad < kw {
			return true
		}
		x := Randn(r, 1, n, c, h, w)
		cols := Im2Col(x, kh, kw, stride, pad)
		y := Randn(r, 1, cols.Shape()...)
		lhs := Dot(cols, y)
		rhs := Dot(x, Col2Im(y, n, c, h, w, kh, kw, stride, pad))
		return almostEqual(lhs, rhs, 1e-2*math.Max(1, math.Abs(lhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMagnitudeBitsOrder is the table for the one helper every magnitude
// ranking goes through: keys order like |v|, the two zeros tie, and a NaN of
// either sign ranks above +Inf instead of making the order inconsistent.
func TestMagnitudeBitsOrder(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	ascending := [][]float32{ // groups of equal magnitude, smallest first
		{0, negZero},
		{math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32},
		{1e-40},
		{1.17549435e-38}, // smallest normal
		{0.5, -0.5},
		{1, -1},
		{math.MaxFloat32, -math.MaxFloat32},
		{inf, -inf},
		{nan, -nan},
	}
	for i, group := range ascending {
		for _, v := range group {
			if got, want := MagnitudeBits(v), MagnitudeBits(group[0]); got != want {
				t.Errorf("MagnitudeBits(%v) = %#x, want the key of %v (%#x)", v, got, group[0], want)
			}
			if i > 0 && MagnitudeBits(v) <= MagnitudeBits(ascending[i-1][0]) {
				t.Errorf("MagnitudeBits(%v) does not exceed that of %v", v, ascending[i-1][0])
			}
		}
	}
	// Without a NaN the keys order exactly as the float magnitudes do.
	f := func(a, b float32) bool {
		if a != a || b != b {
			return true
		}
		fa, fb := math.Abs(float64(a)), math.Abs(float64(b))
		return (fa < fb) == (MagnitudeBits(a) < MagnitudeBits(b)) && (fa == fb) == (MagnitudeBits(a) == MagnitudeBits(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzKthMatchesSort checks that radix selection returns the key a full sort
// puts at index k — at k, at 0 and at len−1 — for any keys. The fuzz data are
// raw little-endian words; the seed corpus under testdata holds the named
// edges (one key, all equal, duplicates straddling k, NaN and ±Inf
// magnitude patterns, keys differing only in their low byte, the top bit set).
func FuzzKthMatchesSort(f *testing.F) {
	f.Add(uint16(3), []byte("\x01\x00\x00\x00\x00\x00\xc0\x7f\x00\x00\x80\x7f\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, kb uint16, raw []byte) {
		keys := make([]uint32, len(raw)/4)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		if len(keys) == 0 {
			return
		}
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		for _, k := range []int{int(kb) % len(keys), 0, len(keys) - 1} {
			if got := KthKey(slices.Clone(keys), k); got != sorted[k] {
				t.Fatalf("KthKey(%d keys, k=%d) = %#x, sort gives %#x", len(keys), k, got, sorted[k])
			}
		}
	})
}
