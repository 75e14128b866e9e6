// Package collective implements the gradient-aggregation primitives the
// PacTrain paper's schemes call, executed for real across worker goroutines:
// all-reduce, all-gather for sparse (value,index) payloads and the
// block-sparse aggregation. A Cluster is a data plane only: it sums,
// scatter-adds and finishes the ranks' payloads and returns no time.
//
// Timing model. What a collective costs is priced by a Pricer over the
// netsim fabric (pricer.go), built once per algorithm, fabric and host list:
// the symmetric collectives under one of a fixed table of Algorithms (ring,
// tree, hierarchical — see algorithm.go; the flat ring is the default and
// reproduces the paper's setup bit-exactly), the parameter-server and
// block-sparse transports (Pricer.PS, Pricer.BlockSparse) the same under
// every algorithm. The trainer and every replay price a recorded op through
// one function, core.CostOp. A collective is a synchronization
// point: it starts at the maximum of the participants' ready times. Ring
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
	// BitmapWire is the wire format of a sparsity bitmap (1 bit per element).
	BitmapWire = WireFormat{Name: "bitmap", BytesPerElement: 0.125, HeaderBytes: 8}
)

// MessageBytes returns the wire size of a message carrying n elements.
func (w WireFormat) MessageBytes(n int) float64 {
	return float64(n)*w.BytesPerElement + w.HeaderBytes
}

// Cluster coordinates a fixed set of worker goroutines. All workers must
// call the same sequence of collective operations (SPMD), as they would with
// NCCL. Each collective is a rendezvous whose last arrival computes the
// result once for every rank.
type Cluster struct {
	world int

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     uint64
	inputs  []any
	result  any

	// sumBuf and bucketBuf are the once-paths' reusable buffers. Reuse is
	// safe: a buffer becomes c.result, every rank copies it out before it
	// arrives at the next rendezvous, and only that rendezvous writes it.
	sumBuf, bucketBuf []float32
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

// NewCluster builds a cluster of world workers, mapped in rank order onto
// the fabric's hosts by whoever prices its collectives. It panics if the
// topology has fewer hosts than workers.
func NewCluster(world int, fabric *netsim.Fabric) *Cluster {
	if hosts := fabric.Topo.Hosts(); len(hosts) < world {
		panic(fmt.Sprintf("collective: topology has %d hosts for %d workers", len(hosts), world))
	}
	c := &Cluster{world: world, inputs: make([]any, world)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// rendezvous gathers one input per rank, lets the last arrival run compute
// exactly once over all inputs, and returns compute's result to every rank.
// It is a reusable generation barrier.
func (c *Cluster) rendezvous(rank int, input any, compute func(inputs []any) any) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.gen
	c.inputs[rank] = input
	c.arrived++
	if c.arrived == c.world {
		c.result = compute(c.inputs)
		c.arrived = 0
		c.gen++
		c.inputs = make([]any, c.world)
		c.cond.Broadcast()
		return c.result
	}
	for c.gen == gen {
		c.cond.Wait()
	}
	return c.result
}

// AllReduce sums payload elementwise across all workers and writes the
// bucket f finishes from the sum (nil: the sum) into out on every worker.
// The last rank to arrive sums and finishes once; every rank copies the
// bucket. The parameter-server transport moves the same bytes.
func (c *Cluster) AllReduce(rank int, payload, out []float32, f Finish) {
	res := c.rendezvous(rank, payload, func(inputs []any) any {
		vecs := make([][]float32, len(inputs))
		for r, x := range inputs {
			if vecs[r] = x.([]float32); len(vecs[r]) != len(payload) {
				panic("collective: payload length mismatch across ranks")
			}
		}
		return c.sum(vecs, f, len(out))
	})
	copy(out, res.([]float32))
}

// AllReduceSum is AllReduce overwriting vec with the global sum. It prices
// nothing and returns localTime unchanged. The benchmark's probes are its
// only callers; it is deleted with the benchmark change of ROADMAP
// direction 2.
func (c *Cluster) AllReduceSum(rank int, vec []float32, wire WireFormat, localTime float64) float64 {
	c.AllReduce(rank, vec, vec, nil)
	return localTime
}

// SparsePayload carries one worker's sparse contribution to an all-gather.
type SparsePayload struct {
	Values  []float32
	Indices []int32
}

// gather is the all-gather rendezvous: the last rank to arrive hands every
// rank f(payloads in rank order).
func (c *Cluster) gather(rank int, payload SparsePayload, f func(all []SparsePayload) any) any {
	return c.rendezvous(rank, payload, func(inputs []any) any {
		all := make([]SparsePayload, c.world)
		for i, in := range inputs {
			all[i] = in.(SparsePayload)
		}
		return f(all)
	})
}

// AllGatherSparse exchanges every worker's (values, indices) lists so each
// worker holds all contributions. Peers read a payload after its owner
// returns, so each round needs a fresh one. It prices nothing and returns
// localTime unchanged. The benchmark's probes are its only callers outside
// this package's tests; it is deleted with the benchmark change of ROADMAP
// direction 2.
func (c *Cluster) AllGatherSparse(rank int, payload SparsePayload, wire WireFormat, localTime float64) ([]SparsePayload, float64) {
	return c.gather(rank, payload, func(all []SparsePayload) any { return all }).([]SparsePayload), localTime
}

// AllGatherSum is the all-gather's once-path — the transport TopK and DGC
// must use, since sparse selections differ across workers and cannot be
// summed in place (§I, Table 1): the last rank to arrive adds each payload's
// values at its (distinct) indices into one bucket of len(out) from +0 in
// rank order, and finishes it like AllReduce. No payload is read after the
// rendezvous. It returns every rank's payload size in rank order, what the
// op is priced on: new per op, shared by every rank, read-only.
func (c *Cluster) AllGatherSum(rank int, payload SparsePayload, out []float32, f Finish) (sizes []int) {
	type agOut struct {
		bucket []float32
		sizes  []int
	}
	r := c.gather(rank, payload, func(all []SparsePayload) any {
		sum := grow(&c.sumBuf, len(out))
		clear(sum)
		sizes := make([]int, len(all))
		for i, p := range all {
			tensor.ScatterAdd(sum, p.Indices, p.Values)
			sizes[i] = len(p.Values)
		}
		return agOut{c.finish(f, sum, len(out)), sizes}
	}).(agOut)
	copy(out, r.bucket)
	return r.sizes
}
