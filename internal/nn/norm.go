package nn

import (
	"math"

	"pactrain/internal/tensor"
)

// BatchNorm2D normalizes each channel of a (N, C, H, W) tensor over the
// batch and spatial dimensions, with learnable per-channel scale (gamma) and
// shift (beta). Running statistics are tracked for evaluation mode.
type BatchNorm2D struct {
	Gamma *Parameter
	Beta  *Parameter

	Eps      float64
	Momentum float64

	runningMean []float64
	runningVar  []float64

	// Caches for backward.
	lastXHat   *tensor.Tensor
	lastInvStd []float64
	lastShape  []int

	out *tensor.Tensor
	dx  *tensor.Tensor
}

// NewBatchNorm2D constructs a batch-norm layer for c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		Gamma:       NewParameter(name+".weight", tensor.Ones(c)),
		Beta:        NewParameter(name+".bias", tensor.New(c)),
		Eps:         1e-5,
		Momentum:    0.1,
		runningMean: make([]float64, c),
		runningVar:  make([]float64, c),
	}
	for i := range bn.runningVar {
		bn.runningVar[i] = 1
	}
	return bn
}

// Forward implements Layer. Statistics, running averages and output planes
// are all per-channel.
func (l *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	l.lastShape = append(l.lastShape[:0], x.Shape()...)
	area := h * w
	l.out = ensure(l.out, n, c, h, w)
	l.lastXHat = ensure(l.lastXHat, x.Shape()...)
	if cap(l.lastInvStd) < c {
		l.lastInvStd = make([]float64, c)
	}
	l.lastInvStd = l.lastInvStd[:c]

	cnt := float64(n * area)
	xd, od, hd := x.Data(), l.out.Data(), l.lastXHat.Data()
	gd, bd := l.Gamma.W.Data(), l.Beta.W.Data()
	for ch := 0; ch < c; ch++ {
		var mean, variance float64
		if train {
			var s, sq float64
			for img := 0; img < n; img++ {
				plane := xd[(img*c+ch)*area : (img*c+ch+1)*area]
				for _, v := range plane {
					fv := float64(v)
					s += fv
					sq += fv * fv
				}
			}
			mean = s / cnt
			variance = sq/cnt - mean*mean
			if variance < 0 {
				variance = 0
			}
			l.runningMean[ch] = (1-l.Momentum)*l.runningMean[ch] + l.Momentum*mean
			l.runningVar[ch] = (1-l.Momentum)*l.runningVar[ch] + l.Momentum*variance
		} else {
			mean = l.runningMean[ch]
			variance = l.runningVar[ch]
		}
		invStd := 1 / math.Sqrt(variance+l.Eps)
		l.lastInvStd[ch] = invStd
		g, b := gd[ch], bd[ch]
		for img := 0; img < n; img++ {
			off := (img*c + ch) * area
			tensor.BatchNorm(hd[off:off+area], od[off:off+area], xd[off:off+area], mean, invStd, g, b)
		}
	}
	return l.out
}

// Backward implements Layer. Uses the standard batch-norm gradient:
//
//	dx = (γ·invStd/m) · (m·dy − Σdy − x̂·Σ(dy·x̂))
//
// Each channel's two sums are float64 chains in ascending (image, position)
// order. Four channels' sums run in one pass, eight chains in flight where one
// channel alone would keep each add waiting on the one before it.
func (l *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c := l.lastShape[0], l.lastShape[1]
	area := l.lastShape[2] * l.lastShape[3]
	l.dx = ensure(l.dx, l.lastShape...)

	m := float64(n * area)
	gd := grad.Data()
	hd := l.lastXHat.Data()
	dd := l.dx.Data()
	gg, gb := l.Gamma.Grad.Data(), l.Beta.Grad.Data()
	gw := l.Gamma.W.Data()
	finish := func(ch int, sumDy, sumDyXhat float64) {
		gg[ch] += float32(sumDyXhat)
		gb[ch] += float32(sumDy)
		scale := float64(gw[ch]) * l.lastInvStd[ch] / m
		for img := 0; img < n; img++ {
			off := (img*c + ch) * area
			tensor.BatchNormGrad(dd[off:off+area], gd[off:off+area], hd[off:off+area], m, sumDy, sumDyXhat, scale)
		}
	}
	for ch := 0; ch < c; ch += 4 {
		// A last group of fewer than four channels repeats its last one.
		c1, c2, c3 := min(ch+1, c-1), min(ch+2, c-1), min(ch+3, c-1)
		var d0, d1, d2, d3, x0, x1, x2, x3 float64
		for img := 0; img < n; img++ {
			g0, g1, g2, g3 := gd[(img*c+ch)*area:][:area], gd[(img*c+c1)*area:][:area], gd[(img*c+c2)*area:][:area], gd[(img*c+c3)*area:][:area]
			h0, h1, h2, h3 := hd[(img*c+ch)*area:][:area], hd[(img*c+c1)*area:][:area], hd[(img*c+c2)*area:][:area], hd[(img*c+c3)*area:][:area]
			for i := range g0 {
				dy0, dy1, dy2, dy3 := float64(g0[i]), float64(g1[i]), float64(g2[i]), float64(g3[i])
				d0 += dy0
				x0 += dy0 * float64(h0[i])
				d1 += dy1
				x1 += dy1 * float64(h1[i])
				d2 += dy2
				x2 += dy2 * float64(h2[i])
				d3 += dy3
				x3 += dy3 * float64(h3[i])
			}
		}
		sums := [...][2]float64{{d0, x0}, {d1, x1}, {d2, x2}, {d3, x3}}
		for j, s := range sums[:min(4, c-ch)] {
			finish(ch+j, s[0], s[1])
		}
	}
	return l.dx
}

// Params implements Layer.
func (l *BatchNorm2D) Params() []*Parameter { return []*Parameter{l.Gamma, l.Beta} }

// LayerNorm normalizes over the last dimension of a (..., D) tensor with
// learnable scale and shift, as used in transformer blocks.
type LayerNorm struct {
	Gamma *Parameter
	Beta  *Parameter
	Eps   float64

	lastXHat   *tensor.Tensor
	lastInvStd []float64
	lastShape  []int

	out *tensor.Tensor
	dx  *tensor.Tensor
}

// NewLayerNorm constructs a layer norm over dimension d.
func NewLayerNorm(name string, d int) *LayerNorm {
	return &LayerNorm{
		Gamma: NewParameter(name+".weight", tensor.Ones(d)),
		Beta:  NewParameter(name+".bias", tensor.New(d)),
		Eps:   1e-5,
	}
}

// Forward implements Layer.
func (l *LayerNorm) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	d := x.Dim(x.Rank() - 1)
	rows := x.Len() / d
	l.lastShape = append(l.lastShape[:0], x.Shape()...)
	l.out = ensure(l.out, x.Shape()...)
	l.lastXHat = ensure(l.lastXHat, x.Shape()...)
	if cap(l.lastInvStd) < rows {
		l.lastInvStd = make([]float64, rows)
	}
	l.lastInvStd = l.lastInvStd[:rows]

	xd, od, hd := x.Data(), l.out.Data(), l.lastXHat.Data()
	gd, bd := l.Gamma.W.Data(), l.Beta.W.Data()
	for r := 0; r < rows; r++ {
		row := xd[r*d : (r+1)*d]
		var s, sq float64
		for _, v := range row {
			fv := float64(v)
			s += fv
			sq += fv * fv
		}
		mean := s / float64(d)
		variance := sq/float64(d) - mean*mean
		if variance < 0 {
			variance = 0
		}
		invStd := 1 / math.Sqrt(variance+l.Eps)
		l.lastInvStd[r] = invStd
		for i, v := range row {
			xh := float32((float64(v) - mean) * invStd)
			hd[r*d+i] = xh
			od[r*d+i] = gd[i]*xh + bd[i]
		}
	}
	return l.out
}

// Backward implements Layer. The gamma/beta gradients accumulate inside the
// dx loop, each element over ascending rows.
func (l *LayerNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d := l.lastShape[len(l.lastShape)-1]
	rows := 1
	for _, s := range l.lastShape[:len(l.lastShape)-1] {
		rows *= s
	}
	l.dx = ensure(l.dx, grad.Shape()...)

	gd := grad.Data()
	hd := l.lastXHat.Data()
	dd := l.dx.Data()
	gw := l.Gamma.W.Data()
	gg, gb := l.Gamma.Grad.Data(), l.Beta.Grad.Data()
	df := float64(d)
	for r := 0; r < rows; r++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < d; i++ {
			dy := float64(gd[r*d+i]) * float64(gw[i])
			sumDy += dy
			sumDyXhat += dy * float64(hd[r*d+i])
		}
		// invStd/df·(…) multiplies left to right: the quotient is hoistable.
		scale := l.lastInvStd[r] / df
		for i := 0; i < d; i++ {
			dy := float64(gd[r*d+i])
			dyg := dy * float64(gw[i])
			xh := float64(hd[r*d+i])
			dd[r*d+i] = float32(scale * (df*dyg - sumDy - xh*sumDyXhat))
			gg[i] += float32(dy * xh)
			gb[i] += float32(dy)
		}
	}
	return l.dx
}

// Params implements Layer.
func (l *LayerNorm) Params() []*Parameter { return []*Parameter{l.Gamma, l.Beta} }
