package nn

import (
	"math"

	"pactrain/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay, matching the optimizer used for the paper's CIFAR
// training runs.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[string]*tensor.Tensor
}

// NewSGD constructs the optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[string]*tensor.Tensor)}
}

// Step applies one update to every parameter using its accumulated gradient.
// Gradients are not cleared; call Model.ZeroGrad before the next backward.
func (s *SGD) Step(params []*Parameter) {
	lr := float32(s.LR)
	mom := float32(s.Momentum)
	wd := float32(s.WeightDecay)
	for _, p := range params {
		var vd []float32
		if mom != 0 {
			v := s.velocity[p.Name]
			if v == nil {
				v = tensor.New(p.W.Shape()...)
				s.velocity[p.Name] = v
			}
			vd = v.Data()
		}
		tensor.SGDStep(p.W.Data(), p.Grad.Data(), vd, lr, mom, wd)
	}
}

// Velocity returns the momentum buffer for a parameter name, or nil. The
// pruning layer uses it to zero stale momentum on masked coordinates.
func (s *SGD) Velocity(name string) *tensor.Tensor { return s.velocity[name] }

// CosineLR returns the cosine-annealed learning rate for the given epoch out
// of total epochs, decaying from base to floor.
func CosineLR(base, floor float64, epoch, total int) float64 {
	if total <= 1 {
		return base
	}
	t := float64(epoch) / float64(total-1)
	if t > 1 {
		t = 1
	}
	return floor + 0.5*(base-floor)*(1+math.Cos(math.Pi*t))
}
