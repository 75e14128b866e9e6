package tensor

import "math"

// The activation and BatchNorm kernels: each is its Go loop below and, on
// amd64 with AVX2 (and FMA, for GELU), the assembly whose lanes round like
// that loop (simd_amd64.s). As in simd.go, a product that a sum or
// difference follows is written as a conversion, which no compiler may fuse.
var (
	gelu          = geluGo          // y[j] = GELU(x[j]), t[j] its tanh when t is not empty
	relu          = reluGo          // y[j] = x[j] > 0 ? x[j] : +0
	addReLU       = addReLUGo       // y[j] = relu(a[j] + b[j])
	reluGrad      = reluGradGo      // dx[j] = y[j] > 0 ? g[j] : +0
	batchNorm     = batchNormGo     // x̂ = (x − mean)·invStd, then y = γ·x̂ + β
	batchNormGrad = batchNormGradGo // dx = scale·((m·dy − Σdy) − x̂·Σdy·x̂)
)

// GELU writes y[j] = float32(0.5·v·(1 + tanh u)) for v = float64(x[j]) and
// u = √(2/π)·(v + 0.044715·v³), the tanh approximation of the Gaussian error
// linear unit, with tanh u from math.Tanh. When t is not empty it also keeps
// t[j] = tanh u for the backward pass. y and x have one length; t has it or
// none.
func GELU(y, x []float32, t []float64) {
	if len(y) != len(x) || len(t) != 0 && len(t) != len(x) {
		panic("tensor: GELU length mismatch")
	}
	gelu(y, x, t)
}

// ReLU writes y[j] = x[j] where x[j] > 0 and +0 elsewhere: for −0, negative
// values and NaN alike. y and x have one length.
func ReLU(y, x []float32) {
	if len(y) != len(x) {
		panic("tensor: ReLU length mismatch")
	}
	relu(y, x)
}

// AddReLU writes y[j] = ReLU of the rounded sum a[j] + b[j]: a residual
// connection and its activation in one pass. The three have one length.
func AddReLU(y, a, b []float32) {
	if len(a) != len(y) || len(b) != len(y) {
		panic("tensor: AddReLU length mismatch")
	}
	addReLU(y, a, b)
}

// ReLUGrad writes the gradient through a ReLU from its output y:
// dx[j] = g[j] where y[j] > 0 and +0 elsewhere. y > 0 exactly where the
// ReLU's input was > 0, so no mask needs keeping. The three have one length.
func ReLUGrad(dx, y, g []float32) {
	if len(y) != len(dx) || len(g) != len(dx) {
		panic("tensor: ReLUGrad length mismatch")
	}
	reluGrad(dx, y, g)
}

// BatchNorm normalizes one plane of a channel with its statistics and
// applies the channel's scale and shift:
// xh[j] = float32((float64(x[j]) − mean)·invStd), then
// y[j] = gamma·xh[j] + beta, a product and then a sum. The three have one
// length.
func BatchNorm(xh, y, x []float32, mean, invStd float64, gamma, beta float32) {
	if len(xh) != len(x) || len(y) != len(x) {
		panic("tensor: BatchNorm length mismatch")
	}
	batchNorm(xh, y, x, mean, invStd, gamma, beta)
}

// BatchNormGrad writes one plane of a channel's input gradient from its
// output gradient dy, normalized input xh and the channel's sums:
// dx[j] = float32(scale·((m·dy[j] − sumDy) − xh[j]·sumDyXhat)) in float64,
// every product and difference rounded on its own. The three have one
// length.
func BatchNormGrad(dx, dy, xh []float32, m, sumDy, sumDyXhat, scale float64) {
	if len(dy) != len(dx) || len(xh) != len(dx) {
		panic("tensor: BatchNormGrad length mismatch")
	}
	batchNormGrad(dx, dy, xh, m, sumDy, sumDyXhat, scale)
}

// geluInner is tanh's argument u for an input v.
func geluInner(v float64) float64 {
	const c = 0.7978845608028654 // √(2/π)
	return c * (v + float64(0.044715*v*v*v))
}

func geluGo(y, x []float32, t []float64) {
	for j, v := range x {
		fv := float64(v)
		tj := math.Tanh(geluInner(fv))
		y[j] = float32(0.5 * fv * (1 + tj))
		if len(t) != 0 {
			t[j] = tj
		}
	}
}

func reluGo(y, x []float32) {
	for j, v := range x {
		if v > 0 {
			y[j] = v
		} else {
			y[j] = 0
		}
	}
}

func addReLUGo(y, a, b []float32) {
	for j := range a {
		if v := a[j] + b[j]; v > 0 {
			y[j] = v
		} else {
			y[j] = 0
		}
	}
}

func reluGradGo(dx, y, g []float32) {
	for j, v := range y {
		if v > 0 {
			dx[j] = g[j]
		} else {
			dx[j] = 0
		}
	}
}

func batchNormGo(xh, y, x []float32, mean, invStd float64, gamma, beta float32) {
	for j, v := range x {
		h := float32((float64(v) - mean) * invStd)
		xh[j] = h
		y[j] = float32(gamma*h) + beta
	}
}

func batchNormGradGo(dx, dy, xh []float32, m, sumDy, sumDyXhat, scale float64) {
	for j, g := range dy {
		dx[j] = float32(scale * (float64(m*float64(g)) - sumDy - float64(float64(xh[j])*sumDyXhat)))
	}
}
