package collective

import "pactrain/internal/netsim"

// This file implements an OmniReduce-style streaming block-sparse
// aggregation [Fei et al., SIGCOMM'21], the sparse-collective-communication
// baseline the paper discusses in §II. Each worker streams only its
// non-zero blocks to an aggregator, which merges them and returns the union
// of non-zero result blocks. The scheme shines near 1% density and — as the
// paper points out — loses its advantage at the 30–80% sparsity that
// pruning provides, which the per-block headers and union fan-out make
// visible here.

// BlockSparseHeaderBytes is the per-block metadata (block id + length).
const BlockSparseHeaderBytes = 8

// nonZeroBlocks returns the indices of blocks of size blockSize containing
// at least one non-zero value.
func nonZeroBlocks(vec []float32, blockSize int) []int {
	var idx []int
	for b := 0; b*blockSize < len(vec); b++ {
		from := b * blockSize
		to := from + blockSize
		if to > len(vec) {
			to = len(vec)
		}
		for _, v := range vec[from:to] {
			if v != 0 {
				idx = append(idx, b)
				break
			}
		}
	}
	return idx
}

// blockBytes returns the wire size of k blocks of blockSize fp32 values,
// scaled by byteScale (the lite-twin→profile wire scale; 1 for raw use).
func blockBytes(k, blockSize int, byteScale float64) float64 {
	return float64(k) * (float64(blockSize)*4*byteScale + BlockSparseHeaderBytes)
}

// CostBlockSparseAggregate prices the streaming aggregation: serialized
// ingress of each worker's non-zero blocks into the aggregator (hosts[0]),
// then the union of non-zero result blocks fanned back out to every worker.
func CostBlockSparseAggregate(f *netsim.Fabric, hosts []netsim.NodeID, perWorkerBlocks []int, unionBlocks, blockSize int, byteScale, t float64) float64 {
	world := len(hosts)
	if world <= 1 {
		return 0
	}
	if byteScale <= 0 {
		byteScale = 1
	}
	start := t
	for i := 1; i < world; i++ {
		t += transferOrPanic(f, hosts[i], hosts[0], blockBytes(perWorkerBlocks[i], blockSize, byteScale), t)
	}
	out := blockBytes(unionBlocks, blockSize, byteScale)
	for i := 1; i < world; i++ {
		t += transferOrPanic(f, hosts[0], hosts[i], out, t)
	}
	return t - start
}

// AllReduceBlockSparse sums vec across workers by exchanging only non-zero
// blocks of blockSize elements through a streaming aggregator. vec is
// overwritten with the global sum, finished once per cluster by f like
// AllReduce (nil takes the sum); byteScale scales the per-value wire cost
// (1 for raw use). It returns the block counts the aggregation was priced
// on: every rank's own non-zero blocks, in rank order (one slice shared by
// all ranks, read-only), and their union.
func (c *Cluster) AllReduceBlockSparse(rank int, vec []float32, blockSize int, byteScale, localTime float64, f Finish) (perWorker []int, unionBlocks int, end float64) {
	type bsOut struct {
		sum       []float32
		perWorker []int
		union     int
	}
	res, endT := c.rendezvous(rank, vec, localTime, func(inputs []any, start float64) (any, float64) {
		vecs := make([][]float32, len(inputs))
		perWorker := make([]int, c.world)
		unionSet := map[int]bool{}
		for i, in := range inputs {
			vecs[i] = in.([]float32)
			blocks := nonZeroBlocks(vecs[i], blockSize)
			perWorker[i] = len(blocks)
			for _, b := range blocks {
				unionSet[b] = true
			}
		}
		sum := c.sum(vecs, f, len(vec))
		t := start + CostBlockSparseAggregate(c.fabric, c.hosts, perWorker, len(unionSet), blockSize, byteScale, start)
		var total float64
		for i := 1; i < c.world; i++ {
			total += blockBytes(perWorker[i], blockSize, byteScale)
			total += blockBytes(len(unionSet), blockSize, byteScale)
		}
		c.stats.PSOps++
		c.stats.PayloadBytes += total
		c.stats.SimSeconds += t - start
		return bsOut{sum: sum, perWorker: perWorker, union: len(unionSet)}, t
	})
	out := res.(bsOut)
	copy(vec, out.sum)
	return out.perWorker, out.union, endT
}
