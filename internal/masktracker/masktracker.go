// Package masktracker implements the Mask Tracker mechanism of §III-C.
//
// DDP frameworks flatten gradients into opaque one-dimensional bucket
// tensors before invoking the communication hook: parameter names are gone
// and the order is rearranged, so the hook cannot consult the pruning mask
// directly. The Mask Tracker instead recovers the mask from the gradients
// themselves: with GSE in force (Eq. 2), pruned coordinates are *exactly
// zero every iteration*, while retained coordinates are non-zero almost
// every iteration. The tracker therefore maintains the union of observed
// supports — a coordinate is considered retained once it has ever been
// non-zero — and declares the pattern stable when the union has stopped
// growing for a configurable number of consecutive iterations. The union
// form is immune to incidental zeros (momentarily dead units, ternary
// quantization zeros) that would make exact pattern matching flap, and its
// monotone growth guarantees stabilization whenever GSE bounds the support.
// Only once stable does PacTrain switch from full synchronization to
// mask-compact communication.
package masktracker

// Tracker monitors one flattened gradient bucket.
type Tracker struct {
	// StableAfter is the number of consecutive growth-free observations
	// (beyond the first) required to deem the pattern stable. The paper
	// leaves the window unspecified; 2 is the default and the ablation
	// `ablation-mt` sweeps it.
	StableAfter int

	union       []bool // coordinates ever observed non-zero
	nnz         int    // number of true entries in union
	consecutive int
	observed    bool
}

// New returns a tracker requiring stableAfter consecutive identical masks.
func New(stableAfter int) *Tracker {
	if stableAfter < 1 {
		stableAfter = 1
	}
	return &Tracker{StableAfter: stableAfter}
}

// Observation is the result of feeding one bucket gradient to the tracker.
type Observation struct {
	// Changed reports whether the union grew this iteration (always true
	// on the first observation).
	Changed bool
	// Stable reports whether the union has now been growth-free for at
	// least StableAfter consecutive iterations.
	Stable bool
	// NNZ is the current union size (retained coordinate count).
	NNZ int
}

// Observe folds the support of a flattened gradient into the union mask and
// reports stability. Exact zeros are treated as masked, matching what GSE
// produces.
func (t *Tracker) Observe(flat []float32) Observation {
	if t.union == nil || len(t.union) != len(flat) {
		t.Reset()
		t.union = make([]bool, len(flat))
	}
	before := t.nnz
	for i, v := range flat {
		if v != 0 && !t.union[i] {
			t.union[i] = true
			t.nnz++
		}
	}
	grew := !t.observed || t.nnz > before
	t.observed = true
	if grew {
		t.consecutive = 0
	} else {
		t.consecutive++
	}
	return Observation{
		Changed: grew,
		Stable:  t.consecutive >= t.StableAfter,
		NNZ:     t.nnz,
	}
}

// Stable reports whether the last observed pattern is stable.
func (t *Tracker) Stable() bool { return t.observed && t.consecutive >= t.StableAfter }

// Indices returns the ascending retained coordinate indices of the current
// mask, the form MaskCompact consumes. It returns nil before the first
// observation.
func (t *Tracker) Indices() []int32 {
	if !t.observed {
		return nil
	}
	idx := make([]int32, 0, t.nnz)
	for i, k := range t.union {
		if k {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// Reset forgets all state, e.g. after a DDP bucket rebuild changes the
// flattening.
func (t *Tracker) Reset() {
	t.union = nil
	t.nnz = 0
	t.consecutive = 0
	t.observed = false
}
