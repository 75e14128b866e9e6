package tensor

// useAVX2 is decided once: the CPU has AVX2 and the OS saves the YMM state.
var useAVX2 = cpuHasAVX2()

// The elementwise assembly takes whole registers (four at a time in maxAbs);
// the Go loops finish the few elements left. The conv kernels' callers pass
// whole registers.
func init() {
	if !useAVX2 {
		return
	}
	axpy = func(a float32, x, y []float32) {
		n := len(x) &^ 7
		axpyAVX2(a, x[:n], y[:n])
		axpyGo(a, x[n:], y[n:])
	}
	scale = func(x []float32, alpha float32) {
		n := len(x) &^ 7
		scaleAVX2(x[:n], alpha)
		scaleGo(x[n:], alpha)
	}
	maxAbs = func(x []float32) float32 {
		n := len(x) &^ 31
		return max(maxAbsAVX2(x[:n]), maxAbsGo(x[n:]))
	}
	momentum = func(w, g, v []float32, lr, mom, wd float32) {
		n := len(w) &^ 7
		momentumAVX2(w[:n], g[:n], v[:n], lr, mom, wd)
		momentumGo(w[n:], g[n:], v[n:], lr, mom, wd)
	}
	convRow, convWeight = convRowAVX2, convWeightAVX2
}

func cpuHasAVX2() bool

//go:noescape
func rowAVX2(c, a []float32, astride int, b []float32, bstride, k int, skip bool)

//go:noescape
func tile4AVX2(c []float32, cstride int, a []float32, arow int, b []float32, bstride, k int)

//go:noescape
func convRowAVX2(c, a []float32, astride int, b []float32, off []int32, mask, acc bool)

//go:noescape
func convWeightAVX2(c []float32, cs int, x []float32, off []int32, g []float32, gs, oh, ow, wq int)

//go:noescape
func axpyAVX2(a float32, x, y []float32)

//go:noescape
func scaleAVX2(x []float32, alpha float32)

//go:noescape
func maxAbsAVX2(x []float32) float32

//go:noescape
func momentumAVX2(w, g, v []float32, lr, mom, wd float32)
