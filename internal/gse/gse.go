// Package gse implements Gradient Sparsity Enforcement, Eq. 2 of the
// PacTrain paper:
//
//	Gradient = (Weight ≠ 0) ⊙ Gradient
//
// Pruning zeroes weights once, but gradients at those coordinates would
// resurrect them on the next optimizer step. GSE zeroes the gradients of
// pruned coordinates every iteration, which (a) keeps the model weights
// sparse for the lifetime of training and (b) makes the *gradient* sparsity
// pattern equal to the weight sparsity pattern — the global knowledge that
// PacTrain's mask-compact compression exploits.
package gse

import (
	"pactrain/internal/nn"
	"pactrain/internal/prune"
)

// Enforce applies Eq. 2 to every parameter of the model using an explicit
// mask: gradients of pruned coordinates are set to exactly zero.
func Enforce(m *nn.Model, mask *prune.Mask) {
	for _, p := range m.Params() {
		mask.Zero(p.Name, p.Grad.Data())
	}
}

// EnforceByWeight applies the literal form of Eq. 2 — masking by the
// current weight values rather than a stored mask. On the prunable weight
// tensors it is equivalent to Enforce immediately after Mask.Apply. Note
// the literal rule also freezes any incidentally zero weight (e.g.
// zero-initialized biases), so the mask-based Enforce is preferred when a
// mask is available; this function exists for opaque-hook settings where it
// is not.
func EnforceByWeight(m *nn.Model) {
	for _, p := range m.Params() {
		w := p.W.Data()
		g := p.Grad.Data()
		for i := range g {
			if w[i] == 0 {
				g[i] = 0
			}
		}
	}
}

// ZeroVelocity clears optimizer momentum on pruned coordinates so stale
// velocity cannot push pruned weights away from zero after the mask is
// applied.
func ZeroVelocity(opt *nn.SGD, m *nn.Model, mask *prune.Mask) {
	for _, p := range m.Params() {
		if v := opt.Velocity(p.Name); v != nil {
			mask.Zero(p.Name, v.Data())
		}
	}
}
