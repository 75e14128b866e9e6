package tensor

import "sync"

// The elementwise kernels: each is its Go loop below and, on amd64 with AVX2,
// the assembly whose lanes round like that loop (simd_amd64.s). The loops
// write every product as a conversion, which no compiler may fuse into the
// sum that follows it.
var (
	axpy     = axpyGo     // y[j] += a·x[j]
	scale    = scaleGo    // x[j] *= alpha
	maxAbs   = maxAbsGo   // max |x[j]| from +0, a NaN never the larger
	momentum = momentumGo // g[j] += wd·w[j] unless wd is 0; v[j] = mom·v[j] + g[j]; w[j] -= lr·v[j]
)

func axpyGo(a float32, x, y []float32) {
	for j, xv := range x {
		y[j] += float32(a * xv)
	}
}

func scaleGo(x []float32, alpha float32) {
	for j := range x {
		x[j] *= alpha
	}
}

func maxAbsGo(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

func momentumGo(w, g, v []float32, lr, mom, wd float32) {
	for j := range w {
		if wd != 0 {
			g[j] += float32(wd * w[j])
		}
		v[j] = float32(mom*v[j]) + g[j]
		w[j] -= float32(lr * v[j])
	}
}

// mulRow is the one row kernel under the three matmuls:
// c[j] = Σ_p a[p·astride]·b[p·bstride+j] over p < k, each c[j] summed from +0
// in ascending p, one multiply and one add per term. With skip, the terms
// whose a is ±0 are left out, as MatMulInto and MatMulTransAInto do for
// sparsity-enforced operands. rowAVX2 keeps the sums in registers and stores
// the row once.
func mulRow(c, a []float32, astride int, b []float32, bstride, k int, skip bool) {
	if useAVX2 && len(c) >= 8 {
		rowAVX2(c, a, astride, b, bstride, k, skip)
		return
	}
	clear(c)
	for p := 0; p < k; p++ {
		av := a[p*astride]
		if skip && av == 0 {
			continue
		}
		for j, bv := range b[p*bstride : p*bstride+len(c)] {
			c[j] += float32(av * bv)
		}
	}
}

// scratch holds the transposes MatMulTransBInto reads, reused across calls so
// a steady-state step allocates nothing. It is a plain free list, not a
// sync.Pool: a Pool may drop what it is given (and under the race detector
// does), and every drop is an allocation the step is pinned not to make.
var scratch struct {
	sync.Mutex
	free [][]float32
}

// getScratch takes an n-float buffer with arbitrary contents from scratch;
// the caller puts it back.
func getScratch(n int) []float32 {
	var b []float32
	scratch.Lock()
	if last := len(scratch.free) - 1; last >= 0 {
		b, scratch.free = scratch.free[last], scratch.free[:last]
	}
	scratch.Unlock()
	if cap(b) < n {
		b = make([]float32, n)
	}
	return b[:n]
}

func putScratch(b []float32) {
	scratch.Lock()
	scratch.free = append(scratch.free, b)
	scratch.Unlock()
}

// transposed writes bᵀ for b of shape (n,k) into scratch, as k rows of n.
// The caller returns the buffer with putScratch.
func transposed(b []float32, n, k int) []float32 {
	bt := getScratch(k * n)
	for j := 0; j < n; j++ {
		for p, v := range b[j*k : (j+1)*k] {
			bt[p*n+j] = v
		}
	}
	return bt
}
