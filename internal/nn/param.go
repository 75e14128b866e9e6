// Package nn implements the neural-network substrate of the PacTrain
// reproduction: layers with analytic forward/backward passes, losses, the
// SGD optimizer, and the model zoo (VGG-lite, ResNet-lite, ViT-lite plus the
// communication profiles of the paper's full-size models).
//
// The design mirrors the parts of PyTorch that PacTrain interacts with:
// parameters carry stable registration names and a registration order, which
// the DDP layer in internal/ddp uses to build reverse-order gradient buckets
// — the exact abstraction whose opacity motivates the paper's Mask Tracker.
package nn

import (
	"fmt"

	"pactrain/internal/tensor"
)

// Parameter is a trainable tensor with its gradient accumulator. Name is
// stable across replicas built from the same seed, so distributed workers
// can refer to parameters consistently.
type Parameter struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// NewParameter wraps a weight tensor in a Parameter with a zeroed gradient.
func NewParameter(name string, w *tensor.Tensor) *Parameter {
	return &Parameter{Name: name, W: w, Grad: tensor.New(w.Shape()...)}
}

// newParameter is NewParameter for the layers that draw their weights from
// r. A nil r builds an undrawn shell (NewLiteUndrawn): its state is copied
// in, and its gradient gets no storage until ddp.BuildBuckets binds it to
// its bucket's.
func newParameter(name string, w *tensor.Tensor, r *tensor.RNG) *Parameter {
	if r == nil {
		return &Parameter{Name: name, W: w, Grad: tensor.Unbound(w.Shape()...)}
	}
	return NewParameter(name, w)
}

// ZeroGrad clears the accumulated gradient.
func (p *Parameter) ZeroGrad() { p.Grad.Zero() }

// NumElements returns the number of scalar weights in the parameter.
func (p *Parameter) NumElements() int { return p.W.Len() }

// Layer is the building block of models. Forward caches whatever it needs so
// that a subsequent Backward can produce exact analytic gradients; Backward
// accumulates parameter gradients and returns the gradient with respect to
// the layer input. A layer is used by exactly one goroutine (its worker), so
// no internal locking is needed.
type Layer interface {
	// Forward computes the layer output. train selects training behaviour
	// (dropout active, batch-norm batch statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// dL/d(param) into each parameter's Grad.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters in registration
	// order; layers without parameters return nil.
	Params() []*Parameter
}

// inputGradDropper is implemented by layers that can leave dL/d(input) out of
// Backward, returning nil instead, once told that nothing consumes it. The
// result reports whether the layer merely reshapes its successor's gradient,
// in which case the successor's input gradient is unconsumed too.
type inputGradDropper interface{ dropInputGrad() (passThrough bool) }

// Sequential chains layers, feeding each output into the next layer.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// dropInputGrad hands the request to the first layer, and past every layer
// that passes it through.
func (s *Sequential) dropInputGrad() bool {
	for _, l := range s.Layers {
		if d, ok := l.(inputGradDropper); !ok || !d.dropInputGrad() {
			return false
		}
	}
	return true
}

// Params implements Layer.
func (s *Sequential) Params() []*Parameter {
	var ps []*Parameter
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Model is a named network with a parameter registry. Parameters are listed
// in registration (construction) order, matching the order a framework like
// PyTorch would register them in, which in turn defines DDP bucket layout.
type Model struct {
	Name string
	Root Layer

	params []*Parameter
}

// NewModel wraps a root layer. Parameter names must already be assigned.
// Nothing consumes the gradient with respect to the network input (the
// images), so the root is told to drop it: the first layer that would compute
// it skips that matmul, and Backward returns nil.
func NewModel(name string, root Layer) *Model {
	m := &Model{Name: name, Root: root, params: root.Params()}
	if d, ok := root.(inputGradDropper); ok {
		d.dropInputGrad()
	}
	seen := make(map[string]bool, len(m.params))
	for _, p := range m.params {
		if p.Name == "" {
			panic("nn: parameter registered without a name")
		}
		if seen[p.Name] {
			panic(fmt.Sprintf("nn: duplicate parameter name %q", p.Name))
		}
		seen[p.Name] = true
	}
	return m
}

// Forward runs the network.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.Root.Forward(x, train)
}

// Backward back-propagates from the loss gradient, accumulating every
// parameter gradient. The input gradient is never computed (see NewModel), so
// the result is nil unless the root cannot drop it.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return m.Root.Backward(grad)
}

// Params returns all parameters in registration order.
func (m *Model) Params() []*Parameter { return m.params }

// ZeroGrad clears every parameter gradient.
func (m *Model) ZeroGrad() {
	for _, p := range m.params {
		p.ZeroGrad()
	}
}

// CopyStateFrom makes m compute exactly what src computes: every parameter's
// weights and every BatchNorm layer's running statistics are copied, without
// allocating. m must have been built like src (same constructor, same
// geometry); its gradients and scratch are left as they are.
func (m *Model) CopyStateFrom(src *Model) {
	for i, p := range m.params {
		copy(p.W.Data(), src.params[i].W.Data())
	}
	copyLayerState(m.Root, src.Root)
}

// copyLayerState copies the state outside parameters — BatchNorm running
// statistics, the only such state — between two identically built layer trees.
func copyLayerState(dst, src Layer) {
	switch d := dst.(type) {
	case *Sequential:
		for i, l := range d.Layers {
			copyLayerState(l, src.(*Sequential).Layers[i])
		}
	case *Residual:
		s := src.(*Residual)
		copyLayerState(d.Body, s.Body)
		if d.Shortcut != nil {
			copyLayerState(d.Shortcut, s.Shortcut)
		}
	case *BatchNorm2D:
		s := src.(*BatchNorm2D)
		copy(d.runningMean, s.runningMean)
		copy(d.runningVar, s.runningVar)
	}
}

// NumParameters returns the total scalar parameter count.
func (m *Model) NumParameters() int {
	n := 0
	for _, p := range m.params {
		n += p.NumElements()
	}
	return n
}
