package nn

import (
	"math"

	"pactrain/internal/par"
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

// Forward implements Layer. Channels are fully independent (statistics,
// running averages, and output planes are all per-channel), so the loop
// chunks over channels with bit-identical results at any par budget.
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

	work := 2 * n * c * area
	if par.PlanChunks(c, work) == 1 {
		l.forwardChannels(x, train, n, area, 0, c)
	} else {
		par.ForChunksWork(c, work, func(_, lo, hi int) {
			l.forwardChannels(x, train, n, area, lo, hi)
		})
	}
	return l.out
}

// forwardChannels normalizes channels [lo,hi).
func (l *BatchNorm2D) forwardChannels(x *tensor.Tensor, train bool, n, area, lo, hi int) {
	c := l.lastShape[1]
	cnt := float64(n * area)
	xd, od, hd := x.Data(), l.out.Data(), l.lastXHat.Data()
	gd, bd := l.Gamma.W.Data(), l.Beta.W.Data()
	for ch := lo; ch < hi; ch++ {
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
}

// Backward implements Layer. Uses the standard batch-norm gradient:
//
//	dx = (γ·invStd/m) · (m·dy − Σdy − x̂·Σ(dy·x̂))
//
// Like Forward, the loop chunks over channels: each channel's gamma/beta
// gradient is a single += and its dx plane is disjoint from every other
// channel's, so chunking is bit-exact.
func (l *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c := l.lastShape[0], l.lastShape[1]
	area := l.lastShape[2] * l.lastShape[3]
	l.dx = ensure(l.dx, l.lastShape...)

	work := 2 * n * c * area
	if par.PlanChunks(c, work) == 1 {
		l.backwardChannels(grad, n, area, 0, c)
	} else {
		par.ForChunksWork(c, work, func(_, lo, hi int) {
			l.backwardChannels(grad, n, area, lo, hi)
		})
	}
	return l.dx
}

// backwardChannels computes gradients for channels [lo,hi).
func (l *BatchNorm2D) backwardChannels(grad *tensor.Tensor, n, area, lo, hi int) {
	c := l.lastShape[1]
	m := float64(n * area)
	gd := grad.Data()
	hd := l.lastXHat.Data()
	dd := l.dx.Data()
	gg, gb := l.Gamma.Grad.Data(), l.Beta.Grad.Data()
	gw := l.Gamma.W.Data()
	for ch := lo; ch < hi; ch++ {
		var sumDy, sumDyXhat float64
		for img := 0; img < n; img++ {
			off := (img*c + ch) * area
			for i := 0; i < area; i++ {
				dy := float64(gd[off+i])
				sumDy += dy
				sumDyXhat += dy * float64(hd[off+i])
			}
		}
		gg[ch] += float32(sumDyXhat)
		gb[ch] += float32(sumDy)
		scale := float64(gw[ch]) * l.lastInvStd[ch] / m
		for img := 0; img < n; img++ {
			off := (img*c + ch) * area
			tensor.BatchNormGrad(dd[off:off+area], gd[off:off+area], hd[off:off+area], m, sumDy, sumDyXhat, scale)
		}
	}
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

// Forward implements Layer. Rows are independent (gamma/beta are read-only
// here), so the loop chunks over rows bit-exactly.
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

	work := x.Len()
	if par.PlanChunks(rows, work) == 1 {
		l.forwardRows(x, d, 0, rows)
	} else {
		par.ForChunksWork(rows, work, func(_, lo, hi int) {
			l.forwardRows(x, d, lo, hi)
		})
	}
	return l.out
}

// forwardRows normalizes rows [lo,hi).
func (l *LayerNorm) forwardRows(x *tensor.Tensor, d, lo, hi int) {
	xd, od, hd := x.Data(), l.out.Data(), l.lastXHat.Data()
	gd, bd := l.Gamma.W.Data(), l.Beta.W.Data()
	for r := lo; r < hi; r++ {
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
}

// Backward implements Layer. The dx rows are independent and chunk over the
// par budget; the gamma/beta gradients accumulate across rows, so they are
// folded in a separate serial pass that visits rows in ascending order —
// exactly the scalar accumulation sequence, keeping results bit-identical at
// any budget.
func (l *LayerNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d := l.lastShape[len(l.lastShape)-1]
	rows := 1
	for _, s := range l.lastShape[:len(l.lastShape)-1] {
		rows *= s
	}
	l.dx = ensure(l.dx, grad.Shape()...)

	work := rows * d
	if par.PlanChunks(rows, work) == 1 {
		l.backwardRows(grad, d, 0, rows)
	} else {
		par.ForChunksWork(rows, work, func(_, lo, hi int) {
			l.backwardRows(grad, d, lo, hi)
		})
	}

	// Serial fold: gamma/beta gradients in ascending row order.
	gd := grad.Data()
	hd := l.lastXHat.Data()
	gg, gb := l.Gamma.Grad.Data(), l.Beta.Grad.Data()
	for r := 0; r < rows; r++ {
		for i := 0; i < d; i++ {
			dy := float64(gd[r*d+i])
			gg[i] += float32(dy * float64(hd[r*d+i]))
			gb[i] += float32(dy)
		}
	}
	return l.dx
}

// backwardRows computes dx rows [lo,hi).
func (l *LayerNorm) backwardRows(grad *tensor.Tensor, d, lo, hi int) {
	gd := grad.Data()
	hd := l.lastXHat.Data()
	dd := l.dx.Data()
	gw := l.Gamma.W.Data()
	df := float64(d)
	for r := lo; r < hi; r++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < d; i++ {
			dy := float64(gd[r*d+i]) * float64(gw[i])
			sumDy += dy
			sumDyXhat += dy * float64(hd[r*d+i])
		}
		for i := 0; i < d; i++ {
			dy := float64(gd[r*d+i])
			dyg := dy * float64(gw[i])
			xh := float64(hd[r*d+i])
			dd[r*d+i] = float32(l.lastInvStd[r] / df * (df*dyg - sumDy - xh*sumDyXhat))
		}
	}
}

// Params implements Layer.
func (l *LayerNorm) Params() []*Parameter { return []*Parameter{l.Gamma, l.Beta} }
