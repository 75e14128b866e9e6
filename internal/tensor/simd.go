package tensor

import "sync"

// axpy adds a·x to y in place: y[j] += a*x[j], for x and y of one length. It
// is the inner loop of matMulRows and matMulTransARows. On amd64 with AVX2
// it is axpyAVX2, whose lanes round like axpyGo (simd_amd64.s).
var axpy = axpyGo

func axpyGo(a float32, x, y []float32) {
	for j, xv := range x {
		y[j] += a * xv
	}
}

// padCols rounds a column count up to the 8 lanes of a YMM register.
func padCols(n int) int { return (n + 7) &^ 7 }

// scratch holds the kernels' transient buffers — the padded transposes
// matMulTransBRowsAVX2 reads, the private rows MatMulTransAInto's chunks
// accumulate in — reused across calls so a steady-state step allocates
// nothing. It is a plain free list, not a sync.Pool: a Pool may drop what it
// is given (and under the race detector does), and every drop is an
// allocation the step is pinned not to make.
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

// transposePadded writes bᵀ for b of shape (n,k) into scratch as k rows of
// padCols(n) floats, the padding columns zero. The caller returns the buffer
// with putScratch.
func transposePadded(b []float32, n, k int) []float32 {
	npad := padCols(n)
	bt := getScratch(k * npad)
	for j := 0; j < n; j++ {
		for p, v := range b[j*k : (j+1)*k] {
			bt[p*npad+j] = v
		}
	}
	if n < npad {
		for p := 0; p < k; p++ {
			clear(bt[p*npad+n : (p+1)*npad])
		}
	}
	return bt
}

// matMulTransBRowsAVX2 is matMulTransBRows over bt = transposePadded(B): each
// lane of dotColsAVX2 is one output column's ascending-p dot product from +0,
// exactly the scalar accumulator. The last, ragged 8-column tile lands in a
// stack buffer so no store runs past a row of C.
func matMulTransBRowsAVX2(cd, ad, bt []float32, k, n, lo, hi int) {
	npad, full := padCols(n), n&^7
	var tail [8]float32
	for i := lo; i < hi; i++ {
		ai := ad[i*k : (i+1)*k]
		ci := cd[i*n : (i+1)*n]
		dotColsAVX2(ci[:full], ai, bt, npad)
		if full < n {
			dotColsAVX2(tail[:], ai, bt[full:], npad)
			copy(ci[full:], tail[:])
		}
	}
}
