package collective

import (
	"slices"
	"testing"

	"pactrain/internal/netsim"
)

func TestBlockSparseSumCorrect(t *testing.T) {
	world := 3
	c := newTestCluster(world, netsim.Gbps)
	n := 1024
	results := make([][]float32, world)
	runWorkers(world, func(rank int) {
		vec := make([]float32, n)
		// Each rank populates a different block plus one shared block.
		vec[rank*256] = float32(rank + 1)
		vec[768] = 1
		perWorker, union := c.AllReduceBlockSparse(rank, vec, 256, nil)
		if !slices.Equal(perWorker, []int{2, 2, 2}) {
			t.Errorf("rank %d per-worker blocks %v, want [2 2 2]", rank, perWorker)
		}
		if union != 4 {
			t.Errorf("rank %d union %d, want 4", rank, union)
		}
		results[rank] = vec
	})
	for rank, vec := range results {
		if vec[0] != 1 || vec[256] != 2 || vec[512] != 3 {
			t.Fatalf("rank %d sums wrong: %v %v %v", rank, vec[0], vec[256], vec[512])
		}
		if vec[768] != 3 {
			t.Fatalf("rank %d shared block sum %v, want 3", rank, vec[768])
		}
	}
}

// blockSparseCost runs one block-sparse aggregation of world identical
// vectors of n elements, every other block (every block when step is 1)
// non-zero up to blocks of them, and prices it on the block counts the
// cluster returned.
func blockSparseCost(world, n, blocks, step int) float64 {
	c := newTestCluster(world, netsim.Gbps)
	var perWorker []int
	var union int
	runWorkers(world, func(rank int) {
		vec := make([]float32, n)
		for b := 0; b < blocks; b++ {
			vec[b*step*256] = 1
		}
		pw, u := c.AllReduceBlockSparse(rank, vec, 256, nil)
		if rank == 0 {
			perWorker, union = pw, u
		}
	})
	f, hosts := flatFabric(world, netsim.Gbps)
	return NewPricer(Algorithm{}, f, hosts).BlockSparse(perWorker, union, 256, 1, 0)
}

func TestBlockSparseCostScalesWithDensity(t *testing.T) {
	n := 256 * 64 // 64 blocks
	cost := func(denseBlocks int) float64 { return blockSparseCost(4, n, denseBlocks, 1) }
	sparse := cost(4)
	dense := cost(64)
	if dense <= sparse*4 {
		t.Fatalf("dense blocks (%v) should cost ≫ sparse blocks (%v)", dense, sparse)
	}
}

// TestBlockSparseLosesAtModerateSparsity verifies the paper's §II-B point:
// at pruning-level sparsity (~50%), block-sparse streaming through an
// aggregator costs more than plain ring all-reduce — OmniReduce needs ~1%
// density to win.
func TestBlockSparseLosesAtModerateSparsity(t *testing.T) {
	world := 8
	n := 256 * 128
	// Half the blocks non-zero.
	bsEnd := blockSparseCost(world, n, 64, 2)
	f, hosts := flatFabric(world, netsim.Gbps)
	arEnd := MustAlgorithm("ring").AllReduce(f, hosts, n, WireFP32, 0)
	if bsEnd <= arEnd {
		t.Fatalf("block-sparse at 50%% density (%v) should lose to ring all-reduce (%v)", bsEnd, arEnd)
	}
}

func TestNonZeroBlocksEdges(t *testing.T) {
	// Tail block shorter than blockSize still detected.
	vec := make([]float32, 300)
	vec[299] = 1
	blocks := nonZeroBlocks(vec, 256)
	if len(blocks) != 1 || blocks[0] != 1 {
		t.Fatalf("blocks %v, want [1]", blocks)
	}
	if got := nonZeroBlocks(make([]float32, 300), 256); len(got) != 0 {
		t.Fatalf("all-zero vector has blocks %v", got)
	}
}
