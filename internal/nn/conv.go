package nn

import (
	"pactrain/internal/par"
	"pactrain/internal/tensor"
)

// Conv2D is a 2-D convolution over (N, C, H, W) inputs using im2col
// lowering. Weights are stored as a (outC, inC*kh*kw) matrix; bias is per
// output channel.
type Conv2D struct {
	Weight *Parameter
	Bias   *Parameter

	InC, OutC      int
	KH, KW         int
	Stride, Pad    int
	lastCols       *tensor.Tensor
	lastInputShape []int

	// Scratch reused across steps.
	outMat *tensor.Tensor
	out    *tensor.Tensor
	gm     *tensor.Tensor
	dW     *tensor.Tensor
	dcols  *tensor.Tensor
	dx     *tensor.Tensor
	noDx   bool // Backward skips dcols and col2im (see inputGradDropper)
}

// NewConv2D constructs a convolution layer with Kaiming initialization.
func NewConv2D(name string, r *tensor.RNG, inC, outC, k, stride, pad int) *Conv2D {
	fanIn := inC * k * k
	return &Conv2D{
		Weight: NewParameter(name+".weight", tensor.KaimingInit(r, fanIn, outC, fanIn)),
		Bias:   NewParameter(name+".bias", tensor.New(outC)),
		InC:    inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
	}
}

// Forward implements Layer.
func (l *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, _, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH := tensor.ConvOutSize(h, l.KH, l.Stride, l.Pad)
	outW := tensor.ConvOutSize(w, l.KW, l.Stride, l.Pad)
	spatial := outH * outW
	patch := l.Weight.W.Dim(1)
	rows := n * spatial
	l.lastCols = ensure(l.lastCols, rows, patch)
	tensor.Im2ColInto(l.lastCols, x, l.KH, l.KW, l.Stride, l.Pad) // (N*outH*outW, inC*kh*kw)
	l.lastInputShape = append(l.lastInputShape[:0], x.Shape()...)

	// out = cols × Wᵀ : (rows, outC)
	l.outMat = ensure(l.outMat, rows, l.OutC)
	tensor.MatMulTransBInto(l.outMat, l.lastCols, l.Weight.W)

	// Add bias and permute (N*outH*outW, outC) → (N, outC, outH, outW).
	// Images are disjoint, so the permute chunks over them bit-exactly.
	l.out = ensure(l.out, n, l.OutC, outH, outW)
	od, md, bd := l.out.Data(), l.outMat.Data(), l.Bias.W.Data()
	work := rows * l.OutC
	if par.PlanChunks(n, work) == 1 {
		convPermuteForward(od, md, bd, l.OutC, spatial, 0, n)
	} else {
		outC := l.OutC
		par.ForChunksWork(n, work, func(_, lo, hi int) {
			convPermuteForward(od, md, bd, outC, spatial, lo, hi)
		})
	}
	return l.out
}

// convPermuteForward adds the bias and permutes images [lo,hi) from
// (rows, outC) layout to (N, outC, outH, outW).
func convPermuteForward(od, md, bd []float32, outC, spatial, lo, hi int) {
	for img := lo; img < hi; img++ {
		for s := 0; s < spatial; s++ {
			row := md[(img*spatial+s)*outC : (img*spatial+s+1)*outC]
			for f, v := range row {
				od[(img*outC+f)*spatial+s] = v + bd[f]
			}
		}
	}
}

// Backward implements Layer.
func (l *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := l.lastInputShape[0]
	h, w := l.lastInputShape[2], l.lastInputShape[3]
	outH := tensor.ConvOutSize(h, l.KH, l.Stride, l.Pad)
	outW := tensor.ConvOutSize(w, l.KW, l.Stride, l.Pad)
	spatial := outH * outW
	rows := n * spatial

	// Un-permute grad (N, outC, outH, outW) → (rows, outC). Images are
	// disjoint, so the permute chunks over them bit-exactly.
	l.gm = ensure(l.gm, rows, l.OutC)
	gd, gmd := grad.Data(), l.gm.Data()
	work := rows * l.OutC
	if par.PlanChunks(n, work) == 1 {
		convPermuteBackward(gmd, gd, l.OutC, spatial, 0, n)
	} else {
		outC := l.OutC
		par.ForChunksWork(n, work, func(_, lo, hi int) {
			convPermuteBackward(gmd, gd, outC, spatial, lo, hi)
		})
	}

	// Bias gradient: column sums of gm, kept serial so each channel's terms
	// accumulate in the scalar row order.
	bg := l.Bias.Grad.Data()
	for r := 0; r < rows; r++ {
		row := gmd[r*l.OutC : (r+1)*l.OutC]
		for f, v := range row {
			bg[f] += v
		}
	}

	// Weight gradient: dW = gmᵀ × cols → (outC, inC*kh*kw).
	patch := l.Weight.W.Dim(1)
	l.dW = ensure(l.dW, l.OutC, patch)
	tensor.MatMulTransAInto(l.dW, l.gm, l.lastCols)
	tensor.AxpyInto(l.Weight.Grad, 1, l.dW)

	if l.noDx {
		return nil
	}
	// Input gradient: dcols = gm × W → (rows, patch); then col2im.
	l.dcols = ensure(l.dcols, rows, patch)
	tensor.MatMulInto(l.dcols, l.gm, l.Weight.W)
	l.dx = ensure(l.dx, n, l.InC, h, w)
	tensor.Col2ImInto(l.dx, l.dcols, l.KH, l.KW, l.Stride, l.Pad)
	return l.dx
}

func (l *Conv2D) dropInputGrad() bool { l.noDx = true; return false }

// convPermuteBackward un-permutes images [lo,hi) of the gradient from
// (N, outC, outH, outW) layout to (rows, outC).
func convPermuteBackward(gmd, gd []float32, outC, spatial, lo, hi int) {
	for img := lo; img < hi; img++ {
		for f := 0; f < outC; f++ {
			src := gd[(img*outC+f)*spatial : (img*outC+f+1)*spatial]
			for s, v := range src {
				gmd[(img*spatial+s)*outC+f] = v
			}
		}
	}
}

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
