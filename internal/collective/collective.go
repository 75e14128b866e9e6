// Package collective implements the gradient-aggregation primitives the
// PacTrain paper's schemes call: all-reduce, all-gather for sparse
// (value,index) payloads, the block-sparse aggregation, a parameter-server
// baseline and the mask-bitmap broadcast — all executed for real across
// worker goroutines with every transfer costed through the netsim fabric.
// The symmetric collectives are priced by one of a fixed table of
// Algorithms (ring, tree, hierarchical — see algorithm.go); the flat ring is
// the default and reproduces the paper's setup bit-exactly.
//
// Timing model. Each collective advances a simulated clock. A collective is
// a synchronization point, so it starts at the maximum of the participants'
// local clocks and every participant observes the same completion time. Ring
// steps are costed as the maximum of the concurrent neighbor transfers; on a
// full-duplex chain topology (Fig. 4) a unidirectional ring never puts two
// same-step transfers on the same directed link, so the max-of-transfers
// model is exact. Parameter-server ingress, by contrast, shares the server's
// edge link, so its transfers are serialized — reproducing the incast that
// makes PS aggregation scale worse than all-reduce (§I of the paper).
package collective

import (
	"fmt"
	"sync"

	"pactrain/internal/netsim"
	"pactrain/internal/tensor"
)

// WireFormat describes how a logical element is represented on the wire.
// Compressors choose the format; collectives only use it to cost transfers.
type WireFormat struct {
	Name string
	// BytesPerElement is the wire cost of one logical element (4 for fp32,
	// 2 for fp16, 0.25 for 2-bit ternary, 8 for value+index pairs...).
	BytesPerElement float64
	// HeaderBytes is a fixed per-message overhead (metadata, scale factors).
	HeaderBytes float64
}

// Standard wire formats.
var (
	WireFP32 = WireFormat{Name: "fp32", BytesPerElement: 4}
	WireFP16 = WireFormat{Name: "fp16", BytesPerElement: 2, HeaderBytes: 4}
	// WireInt8 is a byte-per-element representation used when ternary sums
	// must widen during all-reduce.
	WireInt8 = WireFormat{Name: "int8", BytesPerElement: 1, HeaderBytes: 8}
	// WireSparse is a COO (value,index) pair per element.
	WireSparse = WireFormat{Name: "coo", BytesPerElement: 8, HeaderBytes: 8}
)

// MessageBytes returns the wire size of a message carrying n elements.
func (w WireFormat) MessageBytes(n int) float64 {
	return float64(n)*w.BytesPerElement + w.HeaderBytes
}

// Stats accumulates per-cluster communication totals. The byte counters
// are the *logical* communication volume of each operation — the
// ring-equivalent bytes the paper's compression ratios describe — and are
// deliberately algorithm-independent, so a scheme's volume reads the same
// under ring, tree, or hierarchical pricing. The bytes a given algorithm
// actually pushes across each link (leaders send more than members under
// hierarchical, tree pays fold/unfold copies) live in the fabric's
// per-link accounting (Fabric.BytesOnLink, Fabric.TotalBytes).
type Stats struct {
	AllReduceOps int
	AllGatherOps int
	BroadcastOps int
	PSOps        int
	// BarrierOps stays 0 (no run issues a bare barrier); it is kept because
	// every cached Result's JSON carries it.
	BarrierOps    int
	SimSeconds    float64 // total time spent inside collectives
	PayloadBytes  float64 // logical payload bytes sent by all workers
	PerWorkerSent float64 // logical payload bytes per worker (symmetric ops)
}

// Cluster coordinates a fixed set of worker goroutines over a fabric. All
// workers must call the same sequence of collective operations (SPMD), as
// they would with NCCL. The configured Algorithm prices the symmetric
// collectives; the data plane (what the floats sum to) is identical under
// every algorithm.
type Cluster struct {
	world  int
	fabric *netsim.Fabric
	hosts  []netsim.NodeID
	algo   Algorithm

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     uint64
	inputs  []any
	times   []float64
	result  any
	outTime float64

	// sumBuf and bucketBuf are the once-paths' reusable buffers. Reuse is
	// safe: a buffer becomes c.result, every rank copies it out before it
	// arrives at the next rendezvous, and only that rendezvous writes it.
	sumBuf, bucketBuf []float32

	stats Stats
}

// Finish is a collective's once-per-cluster step: the last rank to arrive runs
// it inside the rendezvous to write the bucket every rank then copies into
// its out, from the aggregate sum. Whichever rank's Finish runs, it must write
// the same bytes.
type Finish func(sum, bucket []float32)

// grow returns the first n elements of *buf, growing it; contents are
// arbitrary.
func grow(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// sum adds vecs elementwise, in rank order from +0, into the reduction
// buffer. A nil f takes the sum as the bucket.
func (c *Cluster) sum(vecs [][]float32, f Finish, n int) []float32 {
	s := grow(&c.sumBuf, len(vecs[0]))
	for r, v := range vecs {
		tensor.AddTo(s, v, r == 0)
	}
	return c.finish(f, s, n)
}

func (c *Cluster) finish(f Finish, sum []float32, n int) []float32 {
	if f == nil {
		return sum
	}
	bucket := grow(&c.bucketBuf, n)
	f(sum, bucket)
	return bucket
}

// NewCluster builds a cluster of world workers mapped in rank order onto the
// fabric's hosts, costed with the default ring algorithm. It panics if the
// topology has fewer hosts than workers.
func NewCluster(world int, fabric *netsim.Fabric) *Cluster {
	return NewClusterWith(world, fabric, MustAlgorithm(DefaultAlgorithm))
}

// NewClusterWith is NewCluster with an explicit collective algorithm.
func NewClusterWith(world int, fabric *netsim.Fabric, algo Algorithm) *Cluster {
	hosts := fabric.Topo.Hosts()
	if len(hosts) < world {
		panic(fmt.Sprintf("collective: topology has %d hosts for %d workers", len(hosts), world))
	}
	c := &Cluster{world: world, fabric: fabric, hosts: hosts[:world], algo: algo,
		inputs: make([]any, world), times: make([]float64, world)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// World returns the number of workers.
func (c *Cluster) World() int { return c.world }

// Algorithm returns the collective algorithm pricing this cluster.
func (c *Cluster) Algorithm() Algorithm { return c.algo }

// Fabric returns the underlying fabric (for accounting inspection).
func (c *Cluster) Fabric() *netsim.Fabric { return c.fabric }

// Hosts returns the fabric hosts the workers are mapped onto, in rank
// order. The slice is a copy; callers pricing hypothetical collectives (the
// adaptive controller) may retain it.
func (c *Cluster) Hosts() []netsim.NodeID {
	out := make([]netsim.NodeID, len(c.hosts))
	copy(out, c.hosts)
	return out
}

// Stats returns a snapshot of the accumulated statistics.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// rendezvous gathers one input per rank, lets the last arrival run compute
// exactly once over all inputs (with the synchronized start time), and
// returns compute's result and completion time to every rank. It is a
// reusable generation barrier.
func (c *Cluster) rendezvous(rank int, input any, localTime float64,
	compute func(inputs []any, start float64) (any, float64)) (any, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.gen
	c.inputs[rank] = input
	c.times[rank] = localTime
	c.arrived++
	if c.arrived == c.world {
		start := c.times[0]
		for _, t := range c.times[1:] {
			if t > start {
				start = t
			}
		}
		res, end := compute(c.inputs, start)
		c.result = res
		c.outTime = end
		c.arrived = 0
		c.gen++
		c.inputs = make([]any, c.world)
		c.cond.Broadcast()
		return res, c.outTime
	}
	for c.gen == gen {
		c.cond.Wait()
	}
	return c.result, c.outTime
}

// chunkRange returns the [from,to) element range of ring chunk idx when
// splitting n elements into world chunks.
func chunkRange(idx, n, world int) (int, int) {
	base := n / world
	rem := n % world
	from := idx*base + min(idx, rem)
	size := base
	if idx < rem {
		size++
	}
	return from, from + size
}

// reduce is the dense collectives' once-path: the last rank to arrive sums
// and finishes every rank's payload and prices the op with cost, which
// returns the completion time; every rank copies the bucket into out.
func (c *Cluster) reduce(rank int, payload, out []float32, localTime float64, f Finish,
	cost func(n int, start float64) float64) float64 {
	res, end := c.rendezvous(rank, payload, localTime, func(inputs []any, start float64) (any, float64) {
		vecs := make([][]float32, len(inputs))
		for r, x := range inputs {
			if vecs[r] = x.([]float32); len(vecs[r]) != len(payload) {
				panic("collective: payload length mismatch across ranks")
			}
		}
		return c.sum(vecs, f, len(out)), cost(len(payload), start)
	})
	copy(out, res.([]float32))
	return end
}

// AllReduce sums payload elementwise across all workers using a ring
// all-reduce (reduce-scatter followed by all-gather) and writes the bucket f
// finishes from the sum (nil: the sum) into out on every worker. wire selects
// the on-wire representation; the returned time is the synchronized
// completion time.
func (c *Cluster) AllReduce(rank int, payload, out []float32, wire WireFormat, localTime float64, f Finish) float64 {
	return c.reduce(rank, payload, out, localTime, f, func(n int, start float64) float64 {
		t := start + c.algo.AllReduce(c.fabric, c.hosts, n, wire, start)
		if c.world > 1 && n > 0 {
			c.stats.PerWorkerSent += wire.MessageBytes(n) / float64(c.world) * 2 * float64(c.world-1)
			c.stats.PayloadBytes += wire.MessageBytes(n) / float64(c.world) * 2 * float64(c.world-1) * float64(c.world)
		}
		c.stats.AllReduceOps++
		c.stats.SimSeconds += t - start
		return t
	})
}

// AllReduceSum is AllReduce overwriting vec with the global sum.
func (c *Cluster) AllReduceSum(rank int, vec []float32, wire WireFormat, localTime float64) float64 {
	return c.AllReduce(rank, vec, vec, wire, localTime, nil)
}

// SparsePayload carries one worker's sparse contribution to an all-gather.
type SparsePayload struct {
	Values  []float32
	Indices []int32
}

// gather is the all-gather rendezvous: the last rank to arrive prices the
// payloads and hands every rank f(payloads in rank order, their sizes).
func (c *Cluster) gather(rank int, payload SparsePayload, wire WireFormat, localTime float64,
	f func(all []SparsePayload, sizes []int) any) (any, float64) {
	return c.rendezvous(rank, payload, localTime, func(inputs []any, start float64) (any, float64) {
		all := make([]SparsePayload, c.world)
		for i, in := range inputs {
			all[i] = in.(SparsePayload)
		}
		sizes := make([]int, c.world)
		var total float64
		for i := range all {
			sizes[i] = len(all[i].Values)
			total += wire.MessageBytes(sizes[i]) * float64(c.world-1)
		}
		t := start + c.algo.AllGather(c.fabric, c.hosts, sizes, wire, start)
		if c.world > 1 {
			c.stats.PayloadBytes += total
			c.stats.PerWorkerSent += total / float64(c.world)
		}
		c.stats.AllGatherOps++
		c.stats.SimSeconds += t - start
		return f(all, sizes), t
	})
}

// AllGatherSparse exchanges every worker's (values, indices) lists so each
// worker holds all contributions, using a ring all-gather. This is the
// transport TopK and DGC must use — sparse selections differ across workers,
// so they cannot be summed in place by all-reduce (§I, Table 1). Peers read a
// payload after its owner returns, so each round needs a fresh one.
func (c *Cluster) AllGatherSparse(rank int, payload SparsePayload, wire WireFormat, localTime float64) ([]SparsePayload, float64) {
	res, end := c.gather(rank, payload, wire, localTime, func(all []SparsePayload, _ []int) any { return all })
	return res.([]SparsePayload), end
}

// AllGatherSum is the all-gather's once-path: the last rank to arrive adds
// each payload's values at its (distinct) indices into one bucket of len(out)
// from +0 in rank order, and finishes it like AllReduce. No payload is read
// after the rendezvous. sizes, what the op was priced on, is new per op, read-only.
func (c *Cluster) AllGatherSum(rank int, payload SparsePayload, out []float32, wire WireFormat, localTime float64, f Finish) (sizes []int, end float64) {
	type agOut struct {
		bucket []float32
		sizes  []int
	}
	res, end := c.gather(rank, payload, wire, localTime, func(all []SparsePayload, sizes []int) any {
		sum := grow(&c.sumBuf, len(out))
		clear(sum)
		for _, p := range all {
			tensor.ScatterAdd(sum, p.Indices, p.Values)
		}
		return agOut{c.finish(f, sum, len(out)), sizes}
	})
	r := res.(agOut)
	copy(out, r.bucket)
	return r.sizes, end
}

// PSAggregate implements the parameter-server baseline: every worker sends
// its payload to the server (rank 0's host), which sums and finishes it like
// AllReduce and returns the bucket into every worker's out.
// Ingress transfers share the server's edge link and are therefore
// serialized, and the response fan-out likewise — the incast bottleneck that
// motivates all-reduce.
func (c *Cluster) PSAggregate(rank int, payload, out []float32, wire WireFormat, localTime float64, f Finish) float64 {
	return c.reduce(rank, payload, out, localTime, f, func(n int, start float64) float64 {
		t := start + CostPSAggregate(c.fabric, c.hosts, n, wire, start)
		c.stats.PayloadBytes += wire.MessageBytes(n) * 2 * float64(c.world-1)
		c.stats.PSOps++
		c.stats.SimSeconds += t - start
		return t
	})
}

// BroadcastScaledBitmap costs the distribution of a pruning/sparsity bitmap
// of n logical bits from root to all workers. PacTrain pays this once per
// mask change (§III-C, DESIGN.md §4). wire is BitmapWire (1 bit per element)
// with its per-element cost scaled by the caller, so a scaled-up model's
// bitmap is priced consistently with its gradients.
func (c *Cluster) BroadcastScaledBitmap(rank, root, n int, wire WireFormat, localTime float64) float64 {
	type bmIn struct{ rank int }
	_, end := c.rendezvous(rank, bmIn{rank}, localTime, func(_ []any, start float64) (any, float64) {
		t := start
		if c.world > 1 && n > 0 {
			msg := wire.MessageBytes(n)
			t += c.algo.Broadcast(c.fabric, c.hosts, root, msg, start)
			c.stats.PayloadBytes += msg * float64(c.world-1)
		}
		c.stats.BroadcastOps++
		c.stats.SimSeconds += t - start
		return nil, t
	})
	return end
}
