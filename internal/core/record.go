package core

import (
	"pactrain/internal/collective"
	"pactrain/internal/netsim"
)

// OpKind identifies a recorded communication operation.
type OpKind int

// Recorded operation kinds.
const (
	OpAllReduce OpKind = iota
	OpAllGather
	OpPS
	OpBlockSparse
	OpBitmapBroadcast
)

// CommOp describes one collective invocation precisely enough to re-cost it
// under a different network without re-running training.
type CommOp struct {
	Kind     OpKind
	Elements int                   // all-reduce / PS / bitmap element count
	Sizes    []int                 // all-gather per-origin element counts
	Blocks   []int                 // block-sparse per-worker block counts
	Union    int                   // block-sparse union block count
	BlockSz  int                   // block-sparse block size
	Scale    float64               // block-sparse wire scale (1 if unset)
	Wire     collective.WireFormat // wire format of the payload (pre-scaled)
	// Decision names the wire format the adaptive controller chose when
	// this op was controller-driven ("" for static schemes and for the
	// adaptive scheme's forced full syncs). The op's Kind/Elements/Wire
	// already encode the decision's *consequences*, so CostIter replays an
	// adaptive log without interpreting this field — but only on the fabric
	// the log was recorded under, because a different fabric would have
	// produced different decisions (Config.FabricSensitive, DESIGN.md §8).
	Decision string `json:",omitempty"`
	// Bucket is the DDP bucket index the op synchronized. Together with the
	// log's BucketElems it lets Replay rebuild the op's per-rank ready times
	// (forward + the bucket's prefix share of backward) on any fabric and
	// under any straggler profile.
	Bucket int `json:",omitempty"`
	// LaunchAt is the synchronized launch time the op actually started at
	// during training — the max of the participants' ready clocks. It is a
	// recorded observation for verification and per-rank log analysis;
	// Replay *derives* launches from the config instead (so it can re-price
	// under other fabrics and straggler profiles) and
	// TestStragglerRecostMatchesRecordedLaunches pins that the two agree.
	LaunchAt float64 `json:",omitempty"`
}

// CommLog records the operations of every iteration on rank 0.
type CommLog struct {
	// BucketElems holds each DDP bucket's element count in bucket order
	// (reverse registration order) — the geometry behind the per-bucket
	// backward ready model. Empty on logs recorded before the timeline
	// refactor.
	BucketElems []int `json:",omitempty"`
	Iters       [][]CommOp
}

// SetBuckets records the bucket geometry (once, at training start).
func (l *CommLog) SetBuckets(elems []int) {
	l.BucketElems = elems
}

// StartIter opens a new iteration record.
func (l *CommLog) StartIter() {
	l.Iters = append(l.Iters, nil)
}

// Record appends an operation to the current iteration.
func (l *CommLog) Record(op CommOp) {
	if len(l.Iters) == 0 {
		l.StartIter()
	}
	l.Iters[len(l.Iters)-1] = append(l.Iters[len(l.Iters)-1], op)
}

// CostIter prices one recorded iteration's communication on the given
// fabric, starting at time t (bandwidth traces see absolute time). alg
// prices the symmetric collectives; re-costing with the algorithm the run
// trained under reproduces its clock bit-exactly, and re-costing with a
// different algorithm reproduces what a training under that algorithm would
// have recorded — the logged operations (element counts, wire formats) are
// algorithm-independent. The PS and block-sparse transports are scheme
// topologies of their own and always price the same way. It builds one
// pricer for the iteration; a caller pricing many holds its own and calls
// CostOp.
func CostIter(ops []CommOp, alg collective.Algorithm, f *netsim.Fabric, hosts []netsim.NodeID, t float64) float64 {
	p := collective.NewPricer(alg, f, hosts)
	start := t
	for _, op := range ops {
		t += CostOp(op, p, t)
	}
	return t - start
}

// CostOp prices one recorded operation starting at absolute time t — the
// per-op unit CostIter serializes, Replay launches at reconstructed
// per-rank barrier times and the trainer charges every synchronized bucket.
func CostOp(op CommOp, p *collective.Pricer, t float64) float64 {
	switch op.Kind {
	case OpAllReduce:
		return p.AllReduce(op.Elements, op.Wire, t)
	case OpAllGather:
		return p.AllGather(op.Sizes, op.Wire, t)
	case OpPS:
		return p.PS(op.Elements, op.Wire, t)
	case OpBlockSparse:
		return p.BlockSparse(op.Blocks, op.Union, op.BlockSz, op.Scale, t)
	case OpBitmapBroadcast:
		wire := op.Wire
		if wire.BytesPerElement == 0 {
			wire = collective.BitmapWire
		}
		return p.Broadcast(0, wire.MessageBytes(op.Elements), t)
	}
	return 0
}

// Stats accumulates a run's communication totals, op by op on rank 0. The
// byte counters are the *logical* communication volume of each operation —
// the ring-equivalent bytes the paper's compression ratios describe — and
// are deliberately algorithm-independent, so a scheme's volume reads the
// same under ring, tree, or hierarchical pricing. The bytes a given
// algorithm pushes across each link (leaders send more than members under
// hierarchical, tree pays fold/unfold copies) are priced, not counted.
type Stats struct {
	AllReduceOps int
	AllGatherOps int
	BroadcastOps int
	PSOps        int // parameter-server and block-sparse aggregations
	// BarrierOps stays 0 (no run issues a bare barrier); it is kept because
	// every cached Result's JSON carries it.
	BarrierOps    int
	SimSeconds    float64 // total time spent inside collectives
	PayloadBytes  float64 // logical payload bytes sent by all workers
	PerWorkerSent float64 // logical payload bytes per worker (symmetric ops)
}

// add counts op, which took dur simulated seconds, across world workers.
func (s *Stats) add(op CommOp, world int, dur float64) {
	w, peers := float64(world), float64(world-1)
	switch op.Kind {
	case OpAllReduce:
		if world > 1 && op.Elements > 0 {
			s.PerWorkerSent += op.Wire.MessageBytes(op.Elements) / w * 2 * peers
			s.PayloadBytes += op.Wire.MessageBytes(op.Elements) / w * 2 * peers * w
		}
		s.AllReduceOps++
	case OpAllGather:
		var total float64
		for _, n := range op.Sizes {
			total += op.Wire.MessageBytes(n) * peers
		}
		if world > 1 {
			s.PayloadBytes += total
			s.PerWorkerSent += total / w
		}
		s.AllGatherOps++
	case OpPS:
		s.PayloadBytes += op.Wire.MessageBytes(op.Elements) * 2 * peers
		s.PSOps++
	case OpBlockSparse:
		var total float64
		for i := 1; i < world; i++ {
			total += collective.BlockBytes(op.Blocks[i], op.BlockSz, op.Scale)
			total += collective.BlockBytes(op.Union, op.BlockSz, op.Scale)
		}
		s.PayloadBytes += total
		s.PSOps++
	case OpBitmapBroadcast:
		if world > 1 && op.Elements > 0 {
			s.PayloadBytes += op.Wire.MessageBytes(op.Elements) * peers
		}
		s.BroadcastOps++
	}
	s.SimSeconds += dur
}

// WireBytesPerWorker returns the payload bytes one worker puts on the wire
// for the recorded iteration (the per-iteration communication volume the
// paper's compression ratios describe).
func WireBytesPerWorker(ops []CommOp, world int) float64 {
	var total float64
	for _, op := range ops {
		switch op.Kind {
		case OpAllReduce:
			total += op.Wire.MessageBytes(op.Elements) * 2 * float64(world-1) / float64(world)
		case OpAllGather:
			for _, s := range op.Sizes {
				total += op.Wire.MessageBytes(s) * float64(world-1) / float64(world)
			}
		case OpPS:
			total += op.Wire.MessageBytes(op.Elements)
		case OpBlockSparse:
			scale := op.Scale
			if scale <= 0 {
				scale = 1
			}
			for _, b := range op.Blocks {
				total += (float64(b*op.BlockSz)*4*scale + float64(b)*collective.BlockSparseHeaderBytes) / float64(world)
			}
		case OpBitmapBroadcast:
			wire := op.Wire
			if wire.BytesPerElement == 0 {
				wire = collective.BitmapWire
			}
			total += wire.MessageBytes(op.Elements) / float64(world)
		}
	}
	return total
}
