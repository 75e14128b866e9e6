package collective

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

// BlockBytes returns the wire size of k blocks of blockSize fp32 values,
// scaled by byteScale (the lite-twin→profile wire scale; 1 for raw use).
func BlockBytes(k, blockSize int, byteScale float64) float64 {
	return float64(k) * (float64(blockSize)*4*byteScale + BlockSparseHeaderBytes)
}

// AllReduceBlockSparse sums vec across workers by exchanging only non-zero
// blocks of blockSize elements through a streaming aggregator. vec is
// overwritten with the global sum, finished once per cluster by f like
// AllReduce (nil takes the sum). It returns the block counts the aggregation
// is priced on (Pricer.BlockSparse): every rank's own non-zero blocks,
// in rank order (one slice shared by all ranks, read-only), and their union.
func (c *Cluster) AllReduceBlockSparse(rank int, vec []float32, blockSize int, f Finish) (perWorker []int, unionBlocks int) {
	type bsOut struct {
		sum       []float32
		perWorker []int
		union     int
	}
	out := c.rendezvous(rank, vec, func(inputs []any) any {
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
		return bsOut{sum: c.sum(vecs, f, len(vec)), perWorker: perWorker, union: len(unionSet)}
	}).(bsOut)
	copy(vec, out.sum)
	return out.perWorker, out.union
}
