package tensor

import "sync"

// The elementwise kernels: each is its Go loop below and, on amd64 with AVX2,
// the assembly whose lanes round like that loop (simd_amd64.s). The loops
// write every product as a conversion, which no compiler may fuse into the
// sum that follows it.
var (
	axpy     = axpyGo     // y[j] += a·x[j]
	scale    = scaleGo    // x[j] *= alpha
	add      = addGo      // y[j] += x[j], or y[j] = +0 + x[j] with fromZero
	maxAbs   = maxAbsGo   // max |x[j]| from +0, a NaN never the larger
	momentum = momentumGo // g[j] += wd·w[j] unless wd is 0; v[j] = mom·v[j] + g[j]; w[j] -= lr·v[j]
	finite   = finiteGo   // every x[j] is finite

	convRow    = convRowGo    // the direct convolution's forward and input-gradient lanes
	convWeight = convWeightGo // its weight-gradient lanes
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

func addGo(y, x []float32, fromZero bool) {
	for j, yv := range y { // the running sum first, as the reduction loops had it
		if fromZero {
			yv = 0
		}
		y[j] = yv + x[j]
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

func finiteGo(x []float32) bool {
	for _, v := range x {
		if v-v != 0 { // NaN for ±Inf and NaN, +0 otherwise
			return false
		}
	}
	return true
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

// convRowGo: c[j] = Σ_p a[p]·b[off[p]+j] over p < len(off), from +0 in
// ascending p, one multiply and one add per term; with mask a term whose b is
// ±0 adds +0 (as skipping it would: a sum from +0 is never −0); with acc the
// sum is then added to c[j], and otherwise bias is added to the sum. len(c)
// is a multiple of 8.
func convRowGo(c, a, b []float32, off []int32, mask, acc bool, bias float32) {
	for j := range c {
		var t float32
		for p, o := range off {
			if v := b[int(o)+j]; !mask || v != 0 {
				t += float32(a[p] * v)
			}
		}
		if acc {
			t = c[j] + t
		} else {
			t = t + bias
		}
		c[j] = t
	}
}

// convWeightGo: c[i·cs+j] += Σ x[off[i]+oy·wq+ox]·g[(oy·ow+ox)·gs+j] for i, j
// < 8, over ascending oy < oh, ox < ow; with mask a term whose g is ±0 adds +0
// to these sums from +0. The lanes feed eight sums from one load of g.
func convWeightGo(c []float32, cs int, x []float32, off []int32, g []float32, gs, oh, ow, wq int, mask bool) {
	for i, o := range off[:8] {
		for j := range 8 {
			s := c[i*cs+j]
			for oy := range oh {
				for ox := range ow {
					if gv := g[(oy*ow+ox)*gs+j]; !mask || gv != 0 {
						s += float32(x[int(o)+oy*wq+ox] * gv)
					}
				}
			}
			c[i*cs+j] = s
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
	transposeTo(bt, b, n, k)
	return bt
}
