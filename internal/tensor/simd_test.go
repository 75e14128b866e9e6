package tensor

import (
	"math"
	"testing"
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

// checkMatMuls compares the public kernels, MatMulTransBHeldInto included,
// against naiveMatMul on one (m,k,n) problem. ad is A (m,k) and bd is B (k,n),
// both row-major.
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
	want := naiveMatMul(aAt, bAt, m, k, n, false)
	sameBits(t, "MatMulTransBInto", dst.data, want)
	// The held transpose of bt is b, written over a dirty buffer.
	held := Full(float32(math.NaN()), k, n)
	TransposeInto(held, bt)
	sameBits(t, "TransposeInto", held.data, bd)
	dst = Full(float32(math.Inf(1)), m, n)
	MatMulTransBHeldInto(dst, a, bt, held)
	sameBits(t, "MatMulTransBHeldInto", dst.data, want)
}

// misaligned copies s to off floats past the start of a fresh allocation:
// 4-, 8- and 12-byte misalignment for off 1, 2 and 3.
func misaligned(s []float32, off int) []float32 {
	return append(make([]float32, off, off+len(s)), s...)[off:]
}

// sgdStepGo is nn.SGD.Step's update of one parameter as it was written before
// the kernels: the reference for SGDStep, the wd == 0 and mom == 0 branches
// included.
func sgdStepGo(w, g, v []float32, lr, mom, wd float32) {
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
}

func sameBits64(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s: element %d is %#016x (%v), want %#016x (%v)", what, i, g, got[i], w, want[i])
		}
	}
}

// checkElementwise compares axpy, AddTo, scale, maxAbs, SGDStep and the activation
// and BatchNorm kernels with their Go loops on all but the last element of x,
// g and v, which have one length; the last element of each is a sentinel no
// kernel may touch. Every kernel input is misaligned by off floats.
func checkElementwise(t *testing.T, off int, x, g, v []float32, lr, mom, wd float32) {
	t.Helper()
	n := len(x) - 1
	at := func(s []float32) []float32 { return misaligned(s, off) }

	want, got := at(g), at(g)
	axpyGo(lr, x[:n], want[:n])
	axpy(lr, at(x)[:n], got[:n])
	sameBits(t, "axpy", got, want)

	// The reference for AddTo is the reduction loop it replaced: a clear,
	// then the running sum as first addend.
	for _, fromZero := range []bool{false, true} {
		want, got = at(g), at(g)
		if fromZero {
			clear(want[:n])
		}
		for j := range n {
			want[j] += x[j]
		}
		AddTo(got[:n], at(x)[:n], fromZero)
		sameBits(t, "AddTo", got, want)
	}

	want, got = at(x), at(x)
	scaleGo(want[:n], mom)
	scale(got[:n], mom)
	sameBits(t, "scale", got, want)

	sameBits(t, "maxAbs", []float32{maxAbs(at(x)[:n])}, []float32{maxAbsGo(x[:n])})

	// finite on x, on x with its non-finite values made +0, and on that with
	// one ±Inf or NaN at its first, middle or last element.
	fx := at(x)
	checkFinite := func() {
		if got, want := finite(fx[:n]), finiteGo(fx[:n]); got != want {
			t.Fatalf("finite(%v) = %v, want %v", fx[:n], got, want)
		}
	}
	checkFinite()
	for j, v := range fx[:n] {
		if v-v != 0 {
			fx[j] = 0
		}
	}
	checkFinite()
	for i, j := range []int{0, n / 2, n - 1} {
		if n > 0 {
			keep := fx[j]
			fx[j] = palette[5+i]
			checkFinite()
			fx[j] = keep
		}
	}

	ww, wg, wv := at(x), at(g), at(v)
	gw, gg, gv := at(x), at(g), at(v)
	sgdStepGo(ww[:n], wg[:n], wv[:n], lr, mom, wd)
	SGDStep(gw[:n], gg[:n], gv[:n], lr, mom, wd)
	sameBits(t, "SGDStep w", gw, ww)
	sameBits(t, "SGDStep g", gg, wg)
	sameBits(t, "SGDStep v", gv, wv)

	// The activation and BatchNorm kernels write over v's values.
	want, got = at(v), at(v)
	reluGo(want[:n], x[:n])
	ReLU(got[:n], at(x)[:n])
	sameBits(t, "ReLU", got, want)

	want, got = at(v), at(v)
	addReLUGo(want[:n], x[:n], g[:n])
	AddReLU(got[:n], at(x)[:n], at(g)[:n])
	sameBits(t, "AddReLU", got, want)

	want, got = at(v), at(v)
	reluGradGo(want[:n], x[:n], g[:n])
	ReLUGrad(got[:n], at(x)[:n], at(g)[:n])
	sameBits(t, "ReLUGrad", got, want)

	tanhs := func() []float64 {
		s := make([]float64, off+n+1)[off:]
		s[n] = -1.5 // the sentinel
		return s
	}
	wantT, gotT := tanhs(), tanhs()
	for _, keep := range []bool{true, false} {
		wt, gt := wantT[:n], gotT[:n]
		if !keep {
			wt, gt = nil, nil
		}
		want, got = at(v), at(v)
		geluGo(want[:n], x[:n], wt)
		GELU(got[:n], at(x)[:n], gt)
		sameBits(t, "GELU", got, want)
		sameBits64(t, "GELU tanh", gotT, wantT)
	}

	// BatchNorm's float64 scalars are sums and quotients, with the full
	// mantissa a float32 leaves empty; a third of a float32 has it too.
	mean, invStd, scale := float64(lr)/3, float64(mom)/3, float64(wd)/3
	wantH, gotH := at(g), at(g)
	want, got = at(v), at(v)
	batchNormGo(wantH[:n], want[:n], x[:n], mean, invStd, wd, lr)
	BatchNorm(gotH[:n], got[:n], at(x)[:n], mean, invStd, wd, lr)
	sameBits(t, "BatchNorm x̂", gotH, wantH)
	sameBits(t, "BatchNorm", got, want)

	want, got = at(v), at(v)
	batchNormGradGo(want[:n], g[:n], x[:n], float64(n), mean, invStd, scale)
	BatchNormGrad(got[:n], at(g)[:n], at(x)[:n], float64(n), mean, invStd, scale)
	sameBits(t, "BatchNormGrad", got, want)
}

// TestElementwiseAddKeepsRunningSumNaN pins AddTo's operand order where it
// shows: when both addends are NaNs, x86 returns the first one's payload, and
// the reduction loops AddTo replaced had the running sum first. The lane and
// the Go loop (the ninth element) must both keep y's payload; fromZero keeps
// x's, the only NaN.
func TestElementwiseAddKeepsRunningSumNaN(t *testing.T) {
	ny, nx := math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002)
	for _, fromZero := range []bool{false, true} {
		y, x := make([]float32, 9), make([]float32, 9)
		for i := range y {
			y[i], x[i] = ny, nx
		}
		AddTo(y, x, fromZero)
		want := ny
		if fromZero {
			want = nx
		}
		sameBits(t, "AddTo", y, []float32{want, want, want, want, want, want, want, want, want})
	}
}

// geluEdges returns the inputs on both sides of each of math.Tanh's branch
// edges (|u| ≥ 0.625 and |u| > MAXLOG/2, u = geluInner(x)) — the largest x
// below the edge and the two above it, of either sign — then ±0, subnormals,
// ±Inf and NaNs with several payloads.
func geluEdges(t *testing.T) []float32 {
	const maxLog = 8.8029691931113054295988e+01
	var x []float32
	for _, edge := range []struct {
		at     float64
		inside func(u float64) bool
	}{
		{0.625, func(u float64) bool { return u >= 0.625 }},
		{maxLog / 2, func(u float64) bool { return u > maxLog/2 }},
	} {
		// The first positive float32 inside the edge: float32 bits of
		// positive values order like the values, and u grows with x.
		lo, hi := uint32(0), uint32(0x7f800000)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if edge.inside(geluInner(float64(math.Float32frombits(mid)))) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		below, above := geluInner(float64(math.Float32frombits(lo-1))), geluInner(float64(math.Float32frombits(lo)))
		if edge.inside(below) || !edge.inside(above) {
			t.Fatalf("edge %v: u %v and %v do not straddle it", edge.at, below, above)
		}
		for _, b := range []uint32{lo - 1, lo, lo + 1} {
			x = append(x, math.Float32frombits(b), math.Float32frombits(b|1<<31))
		}
	}
	for _, b := range []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000, // subnormals
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fffffff, 0xffd23456, // NaNs
	} {
		x = append(x, math.Float32frombits(b))
	}
	return x
}

// TestElementwiseGELUMatchesTanh holds the GELU lane to its Go loop, and so to
// the toolchain's math.Tanh and math.Exp, on every 256th float32 bit pattern
// (the low byte varying too) and on the inputs geluEdges picks: the output's
// float32 bits and tanh's float64 bits, with the tanh kept and without.
func TestElementwiseGELUMatchesTanh(t *testing.T) {
	if !useFMA {
		t.Skip("no AVX2 and FMA: the Go loop is the only path")
	}
	const chunk = 1 << 16
	x := make([]float32, 0, chunk)
	want, got := make([]float32, chunk), make([]float32, chunk)
	wantT, gotT := make([]float64, chunk), make([]float64, chunk)
	check := func(in []float32) {
		n := len(in)
		geluGo(want[:n], in, wantT[:n])
		GELU(got[:n], in, gotT[:n])
		for i := range in {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) ||
				math.Float64bits(gotT[i]) != math.Float64bits(wantT[i]) {
				t.Fatalf("GELU(%#08x): %#08x and tanh %#016x, want %#08x and %#016x", math.Float32bits(in[i]),
					math.Float32bits(got[i]), math.Float64bits(gotT[i]), math.Float32bits(want[i]), math.Float64bits(wantT[i]))
			}
		}
		GELU(got[:n], in, nil)
		sameBits(t, "GELU without the tanh", got[:n], want[:n])
	}
	check(geluEdges(t))
	for i := uint32(0); i < 1<<24; i++ {
		x = append(x, math.Float32frombits(i<<8|i&0xff))
		if len(x) == chunk {
			check(x)
			x = x[:0]
		}
	}
}

// checkRow compares mulRow with naiveMatMul on one (m,k,n) product, reading A
// row-major at stride 1 and transposed at stride m, with and without the zero
// skip; off misaligns every operand and a sentinel follows each output row.
func checkRow(t *testing.T, off int, ad, bd []float32, m, k, n int) {
	t.Helper()
	at := func(s []float32) []float32 { return misaligned(s, off) }
	aT := make([]float32, k*m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			aT[p*m+i] = ad[i*k+p]
		}
	}
	a, aTr, b := at(ad), at(aT), at(bd)
	for _, skip := range []bool{true, false} {
		want := naiveMatMul(func(i, p int) float32 { return ad[i*k+p] }, func(p, j int) float32 { return bd[p*n+j] }, m, k, n, skip)
		for i := 0; i < m; i++ {
			sentinel := palette[10+i]
			wantRow := append(want[i*n:(i+1)*n:(i+1)*n], sentinel)
			got := at(append(fill(NewRNG(uint64(i)), n), sentinel))
			mulRow(got[:n], a[i*k:], 1, b, n, k, skip)
			sameBits(t, "mulRow stride 1", got, wantRow)
			got = at(append(fill(NewRNG(uint64(i)), n), sentinel))
			mulRow(got[:n], aTr[min(i, len(aTr)):], m, b, n, k, skip) // aTr is empty when k is 0
			sameBits(t, "mulRow stride m", got, wantRow)
		}
	}
}

// checkConvKernels compares the direct convolution's kernels with their Go
// loops on palette values: convRow over a grid of n lanes, with no term or
// up to 12, with and without the mask, and accumulated or biased; and
// convWeight over a random output window, with and without the mask.
func checkConvKernels(t *testing.T, r *RNG, n int) {
	t.Helper()
	k := r.Intn(13)
	a, b, off := fill(r, k), fill(r, n+64), make([]int32, k)
	for i := range off {
		off[i] = int32(r.Intn(65))
	}
	for _, mask := range []bool{false, true} {
		for _, acc := range []bool{false, true} {
			want, bias := fill(r, n), fill(r, 1)[0]
			got := append([]float32(nil), want...)
			convRowGo(want, a, b, off, mask, acc, bias)
			convRow(got, a, b, off, mask, acc, bias)
			sameBits(t, "convRow", got, want)
		}
	}
	oh, ow := 1+r.Intn(4), 1+r.Intn(n/8+3)
	wq, gs, cs := ow+r.Intn(3), 8*(1+r.Intn(3)), 8*(1+r.Intn(2))
	x, g, off8 := fill(r, 64+oh*wq), fill(r, oh*ow*gs), make([]int32, 8)
	for i := range off8 {
		off8[i] = int32(r.Intn(65))
	}
	for _, mask := range []bool{false, true} {
		want := fill(r, 8*cs)
		for i, v := range want {
			want[i] = v + 0 // partial sums from +0: never −0
		}
		got := append([]float32(nil), want...)
		convWeightGo(want, cs, x, off8, g, gs, oh, ow, wq, mask)
		convWeight(got, cs, x, off8, g, gs, oh, ow, wq, mask)
		sameBits(t, "convWeight", got, want)
	}
}

// TestSIMDKernelsMatchScalar is the property behind "fast without moving one
// bit": the AVX2 primitives equal the Go loops they replace on every length
// and alignment, and the kernels built on them equal a naive triple loop.
func TestSIMDKernelsMatchScalar(t *testing.T) {
	r := NewRNG(2025)

	t.Run("primitives", func(t *testing.T) {
		if !useAVX2 {
			t.Skip("no AVX2: the Go loops are the only path")
		}
		// n runs past 128 so the row kernel's one remainder pass meets
		// every width of 1 to 63 lanes after a 64-lane tile too.
		negZero, nan, inf := palette[1], palette[7], palette[5]
		for n := 0; n <= 130; n++ {
			for off := 0; off < 4; off++ {
				x, g, v := fill(r, n+1), fill(r, n+1), fill(r, n+1)
				special, finite := palette[r.Intn(10)], palette[10+r.Intn(246)]
				for _, c := range [][3]float32{{finite, 0.9, 5e-4}, {0.05, 0.9, 0}, {0.05, 0, finite}, {finite, 0, 0}, {special, finite, finite}, {finite, special, special}} {
					checkElementwise(t, off, x, g, v, c[0], c[1], c[2])
				}

				// Three rows with k = off·9 + 1, so every tile width sees
				// short and long sums; the first terms of row 0 put a = −0
				// and a = NaN against non-finite b.
				const m = 3
				k := off*9 + 1
				ad, bd := fill(r, m*k), fill(r, k*n)
				ad[0] = negZero
				if n > 0 {
					bd[0], bd[n-1] = inf, nan
				}
				if k > 1 {
					ad[1] = nan
					copy(bd[n:], []float32{-inf, inf, nan}[:min(3, n)])
				}
				checkRow(t, off, ad, bd, m, k, n)
			}
		}
		for n := 8; n <= 200; n += 8 {
			checkConvKernels(t, r, n)
		}
		nans := make([]float32, 70)
		for i := range nans {
			nans[i] = nan
		}
		for n := 0; n <= 70; n++ {
			sameBits(t, "maxAbs of NaNs", []float32{maxAbs(nans[:n])}, []float32{0})
		}
	})

	t.Run("matmuls", func(t *testing.T) {
		dims := []int{1, 7, 8, 9, 10, 33, 90}
		for range 2 { // every shape twice, with fresh inputs
			for _, m := range dims {
				for _, k := range dims {
					for _, n := range dims {
						checkMatMuls(t, fill(r, m*k), fill(r, k*n), m, k, n)
					}
				}
			}
			// A larger problem, and an empty inner dimension.
			checkMatMuls(t, fill(r, 70*90), fill(r, 90*33), 70, 90, 33)
			checkMatMuls(t, nil, nil, 9, 0, 10)
		}
	})
}

// FuzzMatMulBitExact feeds the matmul kernels shapes and palette values chosen
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

// FuzzElementwiseBitExact feeds the elementwise kernels and the row kernel
// lengths, alignments, coefficients and palette values chosen by the fuzzer.
func FuzzElementwiseBitExact(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(10), uint8(11), uint8(12), []byte{10})
	f.Add(uint8(9), uint8(1), uint8(200), uint8(0), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 100, 50})
	f.Add(uint8(70), uint8(3), uint8(7), uint8(5), uint8(1), []byte("each product and sum rounded on its own"))
	f.Fuzz(func(t *testing.T, nb, offb, lr, mom, wd uint8, data []byte) {
		n, off := int(nb)%97, int(offb)%4
		if len(data) == 0 {
			data = []byte{0}
		}
		draw := func(n, mul, add int) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = palette[data[(i*mul+add)%len(data)]]
			}
			return s
		}
		checkElementwise(t, off, draw(n+1, 1, 0), draw(n+1, 3, 1), draw(n+1, 5, 2), palette[lr], palette[mom], palette[wd])
		m, k := 1+int(lr)%3, int(mom)%20
		checkRow(t, off, draw(m*k, 7, 3), draw(k*n, 11, 5), m, k, n)

		// The conv row kernel on whole registers: no term or up to four, the
		// bias added to the sums or the sums added to c.
		if lanes := n &^ 7; lanes > 0 {
			terms := make([]int32, int(wd)%5)
			for i := range terms {
				terms[i] = int32(data[(i*17+1)%len(data)] % 16)
			}
			for _, acc := range []bool{false, true} {
				want := draw(lanes, 13, 7)
				got := append([]float32(nil), want...)
				convRowGo(want, draw(len(terms), 19, 11), draw(lanes+16, 23, 13), terms, mom&1 == 1, acc, palette[lr])
				convRow(got, draw(len(terms), 19, 11), draw(lanes+16, 23, 13), terms, mom&1 == 1, acc, palette[lr])
				sameBits(t, "convRow", got, want)
			}
		}
	})
}
