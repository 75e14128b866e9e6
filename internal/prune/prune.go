// Package prune implements the neural-network pruning algorithms PacTrain
// builds on (§II-B, §III): global and layerwise unstructured magnitude
// pruning and GraSP gradient-flow scores (Eq. 4). A pruning pass produces a
// Mask — per-parameter boolean keep sets — which the GSE layer then enforces
// on gradients every iteration so the sparsity pattern stays global knowledge
// across distributed workers.
package prune

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"pactrain/internal/nn"
	"pactrain/internal/tensor"
)

// Mask records, for every parameter, which coordinates are retained. Keep may
// be edited until the mask is first applied or enforced; the pruned-coordinate
// lists the per-iteration passes walk are derived from it once, at that point,
// and the mask is read-only (and safe to share between goroutines) afterwards.
type Mask struct {
	Keep map[string][]bool

	index  sync.Once
	pruned map[string][]int32 // ascending coordinates with Keep false
}

// NewMask allocates an all-keep mask covering the model's parameters.
func NewMask(m *nn.Model) *Mask {
	keep := make(map[string][]bool, len(m.Params()))
	for _, p := range m.Params() {
		k := make([]bool, p.NumElements())
		for i := range k {
			k[i] = true
		}
		keep[p.Name] = k
	}
	return &Mask{Keep: keep}
}

// Apply zeroes the pruned weights of the model in place.
func (mk *Mask) Apply(m *nn.Model) {
	for _, p := range m.Params() {
		mk.Zero(p.Name, p.W.Data())
	}
}

// Zero stores +0 at the named parameter's pruned coordinates of d — the
// stores a loop over Keep would make, without visiting the kept coordinates.
// A parameter the mask does not cover is left untouched.
func (mk *Mask) Zero(name string, d []float32) {
	mk.index.Do(mk.buildIndex)
	for _, i := range mk.pruned[name] {
		d[i] = 0
	}
}

func (mk *Mask) buildIndex() {
	mk.pruned = make(map[string][]int32, len(mk.Keep))
	for name, keep := range mk.Keep {
		var at []int32
		for i, k := range keep {
			if !k {
				at = append(at, int32(i))
			}
		}
		mk.pruned[name] = at
	}
}

// Sparsity returns the pruned fraction across all masked parameters.
func (mk *Mask) Sparsity() float64 {
	total, pruned := 0, 0
	for _, keep := range mk.Keep {
		for _, k := range keep {
			total++
			if !k {
				pruned++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(pruned) / float64(total)
}

// Count returns (kept, total) coordinates.
func (mk *Mask) Count() (kept, total int) {
	for _, keep := range mk.Keep {
		for _, k := range keep {
			total++
			if k {
				kept++
			}
		}
	}
	return kept, total
}

// prunable reports whether a parameter participates in unstructured
// pruning. Following standard practice (and the paper's use of unstructured
// weight pruning), biases and normalization affine parameters are exempt:
// they are tiny, and pruning them destabilizes training.
func prunable(p *nn.Parameter) bool {
	return p.W.Len() > 1 && p.W.Rank() >= 2
}

// Method selects the scoring criterion for unstructured pruning.
type Method int

// Supported pruning criteria.
const (
	// GlobalMagnitude ranks all prunable weights together by |w|.
	GlobalMagnitude Method = iota
	// LayerMagnitude applies the ratio within each parameter tensor.
	LayerMagnitude
	// GraSP ranks by the gradient-flow preservation score −θ⊙(H∇l).
	GraSP
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case GlobalMagnitude:
		return "global-magnitude"
	case LayerMagnitude:
		return "layer-magnitude"
	case GraSP:
		return "grasp"
	}
	return "unknown"
}

// MagnitudePrune builds a mask that prunes the given fraction of prunable
// weights by magnitude. With GlobalMagnitude the threshold is shared across
// layers; with LayerMagnitude each tensor is pruned independently. The
// returned mask is deterministic given the weights, so identically
// initialized replicas derive identical masks without communication.
func MagnitudePrune(m *nn.Model, ratio float64, method Method) (*Mask, error) {
	if ratio < 0 || ratio >= 1 {
		return nil, fmt.Errorf("prune: ratio %v out of [0,1)", ratio)
	}
	mask := NewMask(m)
	if ratio == 0 {
		return mask, nil
	}
	// One threshold per group of tensors: all of them together, or each alone.
	var groups [][]*nn.Parameter
	for _, p := range m.Params() {
		if prunable(p) {
			groups = append(groups, []*nn.Parameter{p})
		}
	}
	switch method {
	case GlobalMagnitude:
		groups = [][]*nn.Parameter{slices.Concat(groups...)}
	case LayerMagnitude:
	default:
		return nil, fmt.Errorf("prune: MagnitudePrune does not support method %v", method)
	}
	keys := make([]uint32, 0, m.NumParameters())
	for _, group := range groups {
		keys = keys[:0]
		for _, p := range group {
			for _, v := range p.W.Data() {
				keys = append(keys, tensor.MagnitudeBits(v))
			}
		}
		th, ok := kthMagnitude(keys, ratio)
		if !ok {
			continue
		}
		// Strictly above: weights tied with the threshold are pruned with it.
		for _, p := range group {
			keep := mask.Keep[p.Name]
			for i, v := range p.W.Data() {
				keep[i] = tensor.MagnitudeBits(v) > th
			}
		}
	}
	return mask, nil
}

// kthMagnitude returns the pruning threshold, the key that k = ⌊len·ratio⌋
// others do not exceed (the one a sort puts at index k); ok is false when k is
// 0 and nothing is to be pruned. It reorders keys. Magnitudes are compared as
// tensor.MagnitudeBits keys, so a NaN weight ranks above every number and is
// kept.
func kthMagnitude(keys []uint32, ratio float64) (th uint32, ok bool) {
	k := int(float64(len(keys)) * ratio)
	if k <= 0 {
		return 0, false
	}
	return tensor.KthKey(keys, min(k, len(keys)-1)), true
}

// GraSPScores computes the gradient-flow score of Eq. 4, S = −θ ⊙ (H∇l),
// for every prunable parameter. computeGrads must zero the model gradients
// and run one forward/backward pass on a fixed probe batch; it is invoked
// twice to form the Hessian-vector product by finite differences:
//
//	H∇l ≈ (∇l(θ + ε·∇l) − ∇l(θ)) / ε
//
// Keeping the probe batch identical across distributed workers makes the
// resulting mask identical everywhere without extra communication.
func GraSPScores(m *nn.Model, computeGrads func()) map[string][]float64 {
	params := m.Params()

	// First gradient at θ.
	computeGrads()
	g0 := make(map[string][]float32, len(params))
	var gnorm float64
	for _, p := range params {
		g := append([]float32(nil), p.Grad.Data()...)
		g0[p.Name] = g
		for _, v := range g {
			gnorm += float64(float64(v) * float64(v))
		}
	}
	gnorm = math.Sqrt(gnorm)
	eps := 1e-2
	if gnorm > 0 {
		eps = 1e-2 / gnorm * math.Sqrt(float64(m.NumParameters()))
		if eps > 1 {
			eps = 1
		}
	}

	// Perturb θ ← θ + ε·g and recompute gradients.
	for _, p := range params {
		w := p.W.Data()
		g := g0[p.Name]
		for i := range w {
			w[i] += float32(float32(eps) * g[i])
		}
	}
	computeGrads()

	scores := make(map[string][]float64, len(params))
	for _, p := range params {
		w := p.W.Data()
		g := g0[p.Name]
		g1 := p.Grad.Data()
		s := make([]float64, len(w))
		for i := range w {
			hv := (float64(g1[i]) - float64(g[i])) / eps
			theta := float64(w[i]) - float64(eps*float64(g[i])) // original weight
			s[i] = -theta * hv
		}
		scores[p.Name] = s
		// Restore θ.
		for i := range w {
			w[i] -= float32(float32(eps) * g[i])
		}
	}
	return scores
}

// GraSPPrune builds a mask that keeps the (1−ratio) fraction of prunable
// weights with the highest gradient-flow scores (retaining the parameters
// "critical for maintaining essential gradient directions", §III-D).
func GraSPPrune(m *nn.Model, ratio float64, computeGrads func()) (*Mask, error) {
	if ratio < 0 || ratio >= 1 {
		return nil, fmt.Errorf("prune: ratio %v out of [0,1)", ratio)
	}
	mask := NewMask(m)
	if ratio == 0 {
		return mask, nil
	}
	scores := GraSPScores(m, computeGrads)
	var all []float64
	for _, p := range m.Params() {
		if !prunable(p) {
			continue
		}
		all = append(all, scores[p.Name]...)
	}
	if len(all) == 0 {
		return mask, nil
	}
	sorted := append([]float64(nil), all...)
	sort.Float64s(sorted)
	k := int(float64(len(sorted)) * ratio)
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	th := sorted[k]
	for _, p := range m.Params() {
		if !prunable(p) {
			continue
		}
		keep := mask.Keep[p.Name]
		s := scores[p.Name]
		for i := range keep {
			keep[i] = s[i] > th
		}
	}
	return mask, nil
}
