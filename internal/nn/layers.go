package nn

import "pactrain/internal/tensor"

// Linear is a fully connected layer computing y = xW + b for x of shape
// (N, in) and W of shape (in, out).
type Linear struct {
	Weight *Parameter
	Bias   *Parameter

	lastInput *tensor.Tensor
	out       *tensor.Tensor // forward output, reused across steps
	dW        *tensor.Tensor // per-step weight-gradient scratch
	dx        *tensor.Tensor // backward output, reused across steps
	noDx      bool           // Backward skips dx (see inputGradDropper)
}

// NewLinear constructs a Linear layer with Kaiming-initialized weights. The
// name prefixes the two parameters as name+".weight" / name+".bias".
func NewLinear(name string, r *tensor.RNG, in, out int) *Linear {
	return &Linear{
		Weight: newParameter(name+".weight", tensor.KaimingInit(r, in, in, out), r),
		Bias:   newParameter(name+".bias", tensor.New(out), r),
	}
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	l.lastInput = x
	n := x.Dim(0)
	out := l.Weight.W.Dim(1)
	l.out = ensure(l.out, n, out)
	y := l.out
	tensor.MatMulInto(y, x, l.Weight.W)
	bd := l.Bias.W.Data()
	yd := y.Data()
	for i := 0; i < n; i++ {
		row := yd[i*out : (i+1)*out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := l.lastInput
	in, out := l.Weight.W.Dim(0), l.Weight.W.Dim(1)
	n := x.Dim(0)

	l.dW = ensure(l.dW, in, out)
	tensor.MatMulTransAInto(l.dW, x, grad)
	tensor.AxpyInto(l.Weight.Grad, 1, l.dW)

	gb := l.Bias.Grad.Data()
	gd := grad.Data()
	for i := 0; i < n; i++ {
		row := gd[i*out : (i+1)*out]
		for j := range row {
			gb[j] += row[j]
		}
	}

	if l.noDx {
		return nil
	}
	l.dx = ensure(l.dx, n, in)
	tensor.MatMulTransBInto(l.dx, grad, l.Weight.W)
	return l.dx
}

func (l *Linear) dropInputGrad() bool { l.noDx = true; return false }

// Params implements Layer.
func (l *Linear) Params() []*Parameter { return []*Parameter{l.Weight, l.Bias} }

// ReLU applies max(0, x) elementwise. Backward reads the layer's own output:
// it is positive exactly where x was.
type ReLU struct {
	out *tensor.Tensor
	dx  *tensor.Tensor
}

// NewReLU returns a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	l.out = ensure(l.out, x.Shape()...)
	tensor.ReLU(l.out.Data(), x.Data())
	return l.out
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.dx = ensure(l.dx, grad.Shape()...)
	tensor.ReLUGrad(l.dx.Data(), l.out.Data(), grad.Data())
	return l.dx
}

// Params implements Layer.
func (l *ReLU) Params() []*Parameter { return nil }

// GELU applies the Gaussian error linear unit using the tanh approximation,
// the activation used by the ViT models in the paper's workload set.
type GELU struct {
	lastInput *tensor.Tensor
	tanh      []float64 // a train-mode Forward's tanh per element, for Backward
	out       *tensor.Tensor
	dx        *tensor.Tensor
}

// NewGELU returns a GELU activation.
func NewGELU() *GELU { return &GELU{} }

const geluC = 0.7978845608028654 // sqrt(2/pi)

// Forward implements Layer. In train mode it keeps each element's tanh, half
// of the map's cost, so that Backward does not take it again.
func (l *GELU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.lastInput = x
	l.out = ensure(l.out, x.Shape()...)
	xd := x.Data()
	n := len(xd)
	l.tanh = l.tanh[:0]
	if train {
		if cap(l.tanh) < n {
			l.tanh = make([]float64, n)
		}
		l.tanh = l.tanh[:n]
	}
	tensor.GELU(l.out.Data(), xd, l.tanh)
	return l.out
}

// Backward implements Layer; the last Forward must have been in train mode.
func (l *GELU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.dx = ensure(l.dx, grad.Shape()...)
	gin, gd := grad.Data(), l.dx.Data()
	xd, td := l.lastInput.Data(), l.tanh
	if len(td) != len(gd) {
		panic("nn: GELU.Backward without a train-mode Forward of that size")
	}
	for i := range gd {
		x, t := float64(xd[i]), td[i]
		dInner := geluC * (1 + 3*0.044715*x*x)
		dgelu := 0.5*(1+t) + 0.5*x*(1-t*t)*dInner
		gd[i] = gin[i] * float32(dgelu)
	}
	return l.dx
}

// Params implements Layer.
func (l *GELU) Params() []*Parameter { return nil }

// Flatten reshapes (N, ...) to (N, prod(...)). Backward restores the shape.
type Flatten struct {
	lastShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (l *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	l.lastShape = append(l.lastShape[:0], x.Shape()...)
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer. A nil gradient (the successor dropped its input
// gradient) stays nil.
func (l *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if grad == nil {
		return nil
	}
	return grad.Reshape(l.lastShape...)
}

func (l *Flatten) dropInputGrad() bool { return true }

// Params implements Layer.
func (l *Flatten) Params() []*Parameter { return nil }

// Residual computes y = body(x) + shortcut(x) followed by ReLU, the building
// block of the ResNet-shaped models. If shortcut is nil the identity is
// used, which requires body to preserve shape.
type Residual struct {
	Body     Layer
	Shortcut Layer

	out *tensor.Tensor
	g   *tensor.Tensor
	dx  *tensor.Tensor
}

// NewResidual builds a residual block.
func NewResidual(body, shortcut Layer) *Residual {
	return &Residual{Body: body, Shortcut: shortcut}
}

// Forward implements Layer.
func (l *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	main := l.Body.Forward(x, train)
	skip := x
	if l.Shortcut != nil {
		skip = l.Shortcut.Forward(x, train)
	}
	l.out = ensure(l.out, main.Shape()...)
	tensor.AddReLU(l.out.Data(), main.Data(), skip.Data())
	return l.out
}

// Backward implements Layer.
func (l *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.g = ensure(l.g, grad.Shape()...)
	tensor.ReLUGrad(l.g.Data(), l.out.Data(), grad.Data())
	dMain := l.Body.Backward(l.g)
	dSkip := l.g
	if l.Shortcut != nil {
		dSkip = l.Shortcut.Backward(l.g)
	}
	l.dx = ensure(l.dx, dMain.Shape()...)
	tensor.AddInto(l.dx, dMain, dSkip)
	return l.dx
}

// Params implements Layer.
func (l *Residual) Params() []*Parameter {
	ps := l.Body.Params()
	if l.Shortcut != nil {
		ps = append(ps, l.Shortcut.Params()...)
	}
	return ps
}
