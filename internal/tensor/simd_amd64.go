package tensor

// useAVX2 is decided once: the CPU has AVX2 and the OS saves the YMM state.
var useAVX2 = cpuHasAVX2()

// useFMA adds FMA3: then math.Exp runs the VFMADD sequence the GELU lane
// replays, and only then does the lane round like the Go loop.
var useFMA = useAVX2 && cpuHasFMA()

// The elementwise assembly takes whole registers (four at a time in maxAbs;
// in the BatchNorm and GELU lanes, four floats: one register of float64s);
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
	add = func(y, x []float32, fromZero bool) {
		n := len(x) &^ 7
		addAVX2(y[:n], x[:n], fromZero)
		addGo(y[n:], x[n:], fromZero)
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
	finite = func(x []float32) bool {
		n := len(x) &^ 7
		return finiteAVX2(x[:n]) && finiteGo(x[n:])
	}
	convRow, convWeight = convRowAVX2, convWeightAVX2

	relu = func(y, x []float32) {
		n := len(x) &^ 7
		reluAVX2(y[:n], x[:n])
		reluGo(y[n:], x[n:])
	}
	addReLU = func(y, a, b []float32) {
		n := len(a) &^ 7
		addReLUAVX2(y[:n], a[:n], b[:n])
		addReLUGo(y[n:], a[n:], b[n:])
	}
	reluGrad = func(dx, y, g []float32) {
		n := len(y) &^ 7
		reluGradAVX2(dx[:n], y[:n], g[:n])
		reluGradGo(dx[n:], y[n:], g[n:])
	}
	batchNorm = func(xh, y, x []float32, mean, invStd float64, gamma, beta float32) {
		n := len(x) &^ 3
		batchNormAVX2(xh[:n], y[:n], x[:n], mean, invStd, gamma, beta)
		batchNormGo(xh[n:], y[n:], x[n:], mean, invStd, gamma, beta)
	}
	batchNormGrad = func(dx, dy, xh []float32, m, sumDy, sumDyXhat, scale float64) {
		n := len(dy) &^ 3
		batchNormGradAVX2(dx[:n], dy[:n], xh[:n], m, sumDy, sumDyXhat, scale)
		batchNormGradGo(dx[n:], dy[n:], xh[n:], m, sumDy, sumDyXhat, scale)
	}
	if useFMA {
		gelu = func(y, x []float32, t []float64) {
			n := len(x) &^ 3
			var tn []float64 // empty: no tanh kept
			if len(t) != 0 {
				tn, t = t[:n], t[n:]
			}
			geluAVX2(y[:n], x[:n], tn)
			geluGo(y[n:], x[n:], t)
		}
	}
}

func cpuHasAVX2() bool

func cpuHasFMA() bool

//go:noescape
func rowAVX2(c, a []float32, astride int, b []float32, bstride, k int, skip bool)

//go:noescape
func tile4AVX2(c []float32, cstride int, a []float32, arow int, b []float32, bstride, k int)

//go:noescape
func finiteAVX2(x []float32) bool

//go:noescape
func convRowAVX2(c, a, b []float32, off []int32, mask, acc bool, bias float32)

//go:noescape
func convWeightAVX2(c []float32, cs int, x []float32, off []int32, g []float32, gs, oh, ow, wq int, mask bool)

//go:noescape
func axpyAVX2(a float32, x, y []float32)

//go:noescape
func scaleAVX2(x []float32, alpha float32)

//go:noescape
func addAVX2(y, x []float32, fromZero bool)

//go:noescape
func maxAbsAVX2(x []float32) float32

//go:noescape
func momentumAVX2(w, g, v []float32, lr, mom, wd float32)

//go:noescape
func reluAVX2(y, x []float32)

//go:noescape
func addReLUAVX2(y, a, b []float32)

//go:noescape
func reluGradAVX2(dx, y, g []float32)

//go:noescape
func batchNormAVX2(xh, y, x []float32, mean, invStd float64, gamma, beta float32)

//go:noescape
func batchNormGradAVX2(dx, dy, xh []float32, m, sumDy, sumDyXhat, scale float64)

//go:noescape
func geluAVX2(y, x []float32, t []float64)
