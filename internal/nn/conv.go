package nn

import "pactrain/internal/tensor"

// Conv2D is a 2-D convolution over (N, C, H, W) inputs, computed directly
// from a zero-padded copy of the input (tensor.Conv). Weights are stored as an
// (outC, inC*kh*kw) matrix; bias is per output channel.
type Conv2D struct {
	Weight *Parameter
	Bias   *Parameter

	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	conv        *tensor.Conv // the last input's geometry and padded copy

	out, dW, dx *tensor.Tensor // scratch reused across steps
	noDx        bool           // Backward skips the input gradient (see inputGradDropper)
}

// NewConv2D constructs a convolution layer with Kaiming initialization.
func NewConv2D(name string, r *tensor.RNG, inC, outC, k, stride, pad int) *Conv2D {
	fanIn := inC * k * k
	return &Conv2D{
		Weight: newParameter(name+".weight", tensor.KaimingInit(r, fanIn, outC, fanIn), r),
		Bias:   newParameter(name+".bias", tensor.New(outC), r),
		InC:    inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
	}
}

// Forward implements Layer.
func (l *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	l.conv = tensor.ConvFor(l.conv, x, l.OutC, l.KH, l.KW, l.Stride, l.Pad)
	l.out = ensure(l.out, x.Dim(0), l.OutC, l.conv.OutH, l.conv.OutW)
	l.conv.Forward(l.out, x, l.Weight.W, l.Bias.W)
	return l.out
}

// Backward implements Layer.
func (l *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, spatial := grad.Dim(0), l.conv.OutH*l.conv.OutW

	// Bias gradient: each channel's sum in ascending (image, position) order.
	bg, gd := l.Bias.Grad.Data(), grad.Data()
	for f, sum := range bg {
		for img := range n {
			for _, v := range gd[(img*l.OutC+f)*spatial : (img*l.OutC+f+1)*spatial] {
				sum += v
			}
		}
		bg[f] = sum
	}

	l.dW = ensure(l.dW, l.OutC, l.Weight.W.Dim(1))
	var dx *tensor.Tensor
	if !l.noDx {
		l.dx = ensure(l.dx, n, l.InC, l.conv.H, l.conv.W)
		dx = l.dx
	}
	l.conv.Backward(l.dW, dx, grad, l.Weight.W)
	tensor.AxpyInto(l.Weight.Grad, 1, l.dW)
	return dx
}

func (l *Conv2D) dropInputGrad() bool { l.noDx = true; return false }

// Params implements Layer.
func (l *Conv2D) Params() []*Parameter { return []*Parameter{l.Weight, l.Bias} }

// MaxPool2D is a max pooling layer over (N, C, H, W).
type MaxPool2D struct {
	K, Stride int

	argmax    []int
	lastShape []int
	out       *tensor.Tensor
	dx        *tensor.Tensor
}

// NewMaxPool2D constructs a max-pool with square window k and the given
// stride.
func NewMaxPool2D(k, stride int) *MaxPool2D { return &MaxPool2D{K: k, Stride: stride} }

// Forward implements Layer.
func (l *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH := tensor.ConvOutSize(h, l.K, l.Stride, 0)
	outW := tensor.ConvOutSize(w, l.K, l.Stride, 0)
	l.out = ensure(l.out, n, c, outH, outW)
	out := l.out
	l.lastShape = append(l.lastShape[:0], x.Shape()...)
	if cap(l.argmax) < out.Len() {
		l.argmax = make([]int, out.Len())
	}
	l.argmax = l.argmax[:out.Len()]
	xd, od := x.Data(), out.Data()
	oi := 0
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			base := (img*c + ch) * h * w
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					iy0, ix0 := oy*l.Stride, ox*l.Stride
					bestIdx := base + iy0*w + ix0
					best := xd[bestIdx]
					for ky := 0; ky < l.K; ky++ {
						iy := iy0 + ky
						if iy >= h {
							break
						}
						for kx := 0; kx < l.K; kx++ {
							ix := ix0 + kx
							if ix >= w {
								break
							}
							idx := base + iy*w + ix
							if xd[idx] > best {
								best, bestIdx = xd[idx], idx
							}
						}
					}
					od[oi] = best
					l.argmax[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (l *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.dx = ensure(l.dx, l.lastShape...)
	l.dx.Zero()
	dd, gd := l.dx.Data(), grad.Data()
	for i, src := range l.argmax {
		dd[src] += gd[i]
	}
	return l.dx
}

// Params implements Layer.
func (l *MaxPool2D) Params() []*Parameter { return nil }

// GlobalAvgPool2D averages each channel's spatial plane, mapping
// (N, C, H, W) → (N, C). ResNet-style models use it before the classifier.
type GlobalAvgPool2D struct {
	lastShape []int
	out       *tensor.Tensor
	dx        *tensor.Tensor
}

// NewGlobalAvgPool2D constructs the layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Forward implements Layer.
func (l *GlobalAvgPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	l.lastShape = append(l.lastShape[:0], x.Shape()...)
	l.out = ensure(l.out, n, c)
	out := l.out
	xd, od := x.Data(), out.Data()
	area := h * w
	inv := 1 / float32(area)
	for i := 0; i < n*c; i++ {
		var s float32
		plane := xd[i*area : (i+1)*area]
		for _, v := range plane {
			s += v
		}
		od[i] = s * inv
	}
	return out
}

// Backward implements Layer.
func (l *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := l.lastShape[0], l.lastShape[1], l.lastShape[2], l.lastShape[3]
	l.dx = ensure(l.dx, n, c, h, w)
	dx := l.dx
	dd, gd := dx.Data(), grad.Data()
	area := h * w
	inv := 1 / float32(area)
	for i := 0; i < n*c; i++ {
		g := gd[i] * inv
		plane := dd[i*area : (i+1)*area]
		for j := range plane {
			plane[j] = g
		}
	}
	return dx
}

// Params implements Layer.
func (l *GlobalAvgPool2D) Params() []*Parameter { return nil }
