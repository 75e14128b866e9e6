package tensor

import (
	"math"
	"testing"

	"pactrain/internal/par"
)

// palette maps a byte to a float32: the values that break naive kernels
// first, then finite values whose products and sums round at nearly every
// step, so any change of accumulation order or a fused multiply-add shows.
// The one NaN is x86's default NaN: every NaN the kernels can produce from
// these inputs then has the same bits, and the hardware's choice between two
// NaN operands cannot show.
var palette = func() (p [256]float32) {
	specials := []uint32{
		0x00000000, 0x80000000, // +0, -0
		0x00000001, 0x80000001, 0x007fffff, // denormals
		0x7f800000, 0xff800000, // +Inf, -Inf
		0xffc00000,             // NaN
		0x7f7fffff, 0x00800000, // largest and smallest normal
	}
	for i, bits := range specials {
		p[i] = math.Float32frombits(bits)
	}
	r := NewRNG(7)
	for i := len(specials); i < len(p); i++ {
		p[i] = float32(r.NormFloat64() * math.Pow(10, float64(i%7-3)))
	}
	return p
}()

// fill draws n palette values; one in four is a special.
func fill(r *RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if r.Intn(4) == 0 {
			v[i] = palette[r.Intn(10)]
		} else {
			v[i] = palette[10+r.Intn(246)]
		}
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: element %d is %#08x (%v), want %#08x (%v)", what, i, g, got[i], w, want[i])
		}
	}
}

// naiveMatMul is the reference for all three kernels: c[i,j] accumulates
// a[i,p]·b[p,j] over ascending p from +0, one multiply and one add at a time.
// skipZero is the a == 0 skip MatMulInto and MatMulTransAInto keep for
// sparsity-enforced gradients.
func naiveMatMul(a, b func(i, j int) float32, m, k, n int, skipZero bool) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				if av := a(i, p); !skipZero || av != 0 {
					s += av * b(p, j)
				}
			}
			c[i*n+j] = s
		}
	}
	return c
}

// checkMatMuls compares the three public kernels against naiveMatMul on one
// (m,k,n) problem. ad is A (m,k) and bd is B (k,n), both row-major.
func checkMatMuls(t *testing.T, ad, bd []float32, m, k, n int) {
	t.Helper()
	a := FromSlice(ad, m, k)
	b := FromSlice(bd, k, n)
	at, bt := Transpose(a), Transpose(b)
	aAt := func(i, p int) float32 { return ad[i*k+p] }
	bAt := func(p, j int) float32 { return bd[p*n+j] }
	// Dirty destinations: every kernel must overwrite, not accumulate.
	dst := Full(float32(math.Inf(1)), m, n)
	MatMulInto(dst, a, b)
	sameBits(t, "MatMulInto", dst.data, naiveMatMul(aAt, bAt, m, k, n, true))
	dst = Full(float32(math.Inf(1)), m, n)
	MatMulTransAInto(dst, at, b)
	sameBits(t, "MatMulTransAInto", dst.data, naiveMatMul(aAt, bAt, m, k, n, true))
	dst = Full(float32(math.Inf(1)), m, n)
	MatMulTransBInto(dst, a, bt)
	sameBits(t, "MatMulTransBInto", dst.data, naiveMatMul(aAt, bAt, m, k, n, false))
}

// TestSIMDKernelsMatchScalar is the property behind "fast without moving one
// bit": the AVX2 primitives equal the Go loops they replace on every length
// and alignment, and the kernels built on them equal a naive triple loop.
func TestSIMDKernelsMatchScalar(t *testing.T) {
	defer par.SetBudget(par.Budget())
	r := NewRNG(2025)

	t.Run("primitives", func(t *testing.T) {
		if !useAVX2 {
			t.Skip("no AVX2: the Go loops are the only path")
		}
		for n := 0; n <= 70; n++ {
			for off := 0; off < 4; off++ { // float offsets: 4-, 8- and 12-byte misalignment
				x := fill(r, n+off)[off:]
				y := fill(r, n+off+1)[off : off+n] // one element past y must survive
				for _, a := range []float32{palette[r.Intn(10)], palette[10+r.Intn(246)]} {
					want := append([]float32(nil), y[:n+1]...)
					axpyGo(a, x, want[:n])
					axpy(a, x, y)
					sameBits(t, "axpy", y[:n+1], want)
				}

				// The row kernel through its driver: one (2,k,n) product
				// with k = off·9 + 1 so both tile widths see short and long
				// sums.
				k := off*9 + 1
				ad, bd := fill(r, 2*k+off)[off:], fill(r, n*k)
				want, got := make([]float32, 2*n), make([]float32, 2*n+off)[off:]
				matMulTransBRows(want, ad, bd, k, n, 0, 2)
				bt := transposePadded(bd, n, k)
				matMulTransBRowsAVX2(got, ad, bt, k, n, 0, 2)
				putScratch(bt)
				sameBits(t, "row kernel", got, want)
			}
		}
	})

	t.Run("matmuls", func(t *testing.T) {
		dims := []int{1, 7, 8, 9, 10, 33, 90}
		for _, budget := range []int{1, 8} {
			par.SetBudget(budget)
			for _, m := range dims {
				for _, k := range dims {
					for _, n := range dims {
						checkMatMuls(t, fill(r, m*k), fill(r, k*n), m, k, n)
					}
				}
			}
			// Large enough to chunk at budget 8, and an empty inner dimension.
			checkMatMuls(t, fill(r, 70*90), fill(r, 90*33), 70, 90, 33)
			checkMatMuls(t, nil, nil, 9, 0, 10)
		}
	})
}

// FuzzMatMulBitExact feeds the three kernels shapes and palette values chosen
// by the fuzzer. Bytes index the palette rather than being float bits so
// that the comparison can stay exact (see palette).
func FuzzMatMulBitExact(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), []byte{10})
	f.Add(uint8(3), uint8(17), uint8(9), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 100, 50})
	f.Add(uint8(8), uint8(33), uint8(40), []byte("ascending p, one multiply, one add"))
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, data []byte) {
		m, k, n := 1+int(mb)%12, int(kb)%48, 1+int(nb)%72
		if len(data) == 0 {
			data = []byte{0}
		}
		ad, bd := make([]float32, m*k), make([]float32, k*n)
		for i := range ad {
			ad[i] = palette[data[i%len(data)]]
		}
		for i := range bd {
			bd[i] = palette[data[(i*7+3)%len(data)]]
		}
		checkMatMuls(t, ad, bd, m, k, n)
	})
}
