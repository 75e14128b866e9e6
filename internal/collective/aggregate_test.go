package collective_test

import (
	"math"
	"sync"
	"testing"

	"pactrain/internal/collective"
	"pactrain/internal/compress"
	"pactrain/internal/netsim"
)

// specials are the values that break naive sums: ±0, subnormals, the largest
// finite values, ±Inf and NaNs with several payloads and signs.
var specials = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
	0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000,
	0x7fc00000, 0xffc00000, 0x7f800001, 0xffd23456,
}

// FuzzAggregateOnceMatchesPerRank holds the once-per-cluster aggregation to
// the per-rank code it replaced, bit for bit on every rank: the dense sum
// (AllReduce, which the all-reduce and parameter-server hooks sum through,
// and AllReduceBlockSparse) against clearing a buffer and adding each rank's
// payload in rank order; the compact sum decoded once with MaskCompact.Decode
// against the sum copied out and decoded by each rank; and AllGatherSum
// against each rank clearing its bucket and running DecodeSumSparse's loop
// over every payload. World sizes run 1–8, indices repeat across ranks, and
// values include ±0, subnormals, ±Inf and NaNs.
func FuzzAggregateOnceMatchesPerRank(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0})
	f.Add(uint8(1), uint8(9), []byte{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52})
	f.Add(uint8(7), uint8(37), []byte("one decode per cluster, not per rank"))
	f.Add(uint8(4), uint8(200), []byte{255, 3, 40, 52, 0, 17, 99, 44, 4, 128, 7, 9})
	f.Fuzz(func(t *testing.T, worldb, nb uint8, data []byte) {
		world, n := 1+int(worldb)%8, int(nb)
		if len(data) == 0 {
			data = []byte{0}
		}
		at := func(i int) byte { return data[i%len(data)] }
		value := func(i int) float32 {
			if b := at(i); b%4 == 0 {
				return math.Float32frombits(specials[int(b/4)%len(specials)])
			}
			return float32(int(at(i))-128) / float32(1+at(i+1)%13)
		}

		var mask []int32
		for i := range n {
			if at(i*13+5)&2 != 0 {
				mask = append(mask, int32(i))
			}
		}
		dense := make([][]float32, world)
		compact := make([][]float32, world)
		sparse := make([]collective.SparsePayload, world)
		for r := range world {
			dense[r] = make([]float32, n)
			for i := range dense[r] {
				dense[r][i] = value(r*7 + i*3)
			}
			compact[r] = make([]float32, len(mask))
			for i := range compact[r] {
				compact[r][i] = value(r*5 + i*11 + 1)
			}
			for i := range n {
				if at(r*31+i*7)&1 != 0 {
					sparse[r].Indices = append(sparse[r].Indices, int32(i))
					sparse[r].Values = append(sparse[r].Values, value(r+i*17+2))
				}
			}
			if r%2 == 1 { // selection order is the compressor's, not ascending
				for i, j := 0, len(sparse[r].Indices)-1; i < j; i, j = i+1, j-1 {
					sparse[r].Indices[i], sparse[r].Indices[j] = sparse[r].Indices[j], sparse[r].Indices[i]
					sparse[r].Values[i], sparse[r].Values[j] = sparse[r].Values[j], sparse[r].Values[i]
				}
			}
		}
		newDecoder := func() *compress.MaskCompact {
			mc := compress.NewMaskCompact(false, 1)
			mc.SetMask(mask, n)
			return mc
		}

		// The per-rank paths, as every rank ran them.
		sumFromZero := func(vecs [][]float32, m int) []float32 {
			sum := make([]float32, m)
			for _, v := range vecs {
				for i := range sum {
					sum[i] += v[i]
				}
			}
			return sum
		}
		wantDense := sumFromZero(dense, n)
		wantCompact := garbage(n)
		newDecoder().Decode(sumFromZero(compact, len(mask)), wantCompact)
		wantSparse := garbage(n)
		clear(wantSparse)
		for _, p := range sparse { // DecodeSumSparse as every rank ran it
			for i, j := range p.Indices {
				wantSparse[j] += p.Values[i]
			}
		}

		cluster := collective.NewCluster(world, netsim.NewFabric(netsim.FlatTopology(8, netsim.Gbps, 1e-5)))
		got := make([][4][]float32, world)
		var wg sync.WaitGroup
		for r := range world {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mc := newDecoder()
				for k := range got[r] {
					got[r][k] = garbage(n)
				}
				cluster.AllReduce(r, dense[r], got[r][0], nil)
				copy(got[r][1], dense[r])
				cluster.AllReduceBlockSparse(r, got[r][1], 4, nil)
				cluster.AllReduce(r, compact[r], got[r][2], mc.Decode)
				cluster.AllGatherSum(r, sparse[r], got[r][3], nil)
			}()
		}
		wg.Wait()
		for r := range world {
			sameBits(t, "AllReduce", r, got[r][0], wantDense)
			sameBits(t, "AllReduceBlockSparse", r, got[r][1], wantDense)
			sameBits(t, "AllReduce + MaskCompact.Decode", r, got[r][2], wantCompact)
			sameBits(t, "AllGatherSum", r, got[r][3], wantSparse)
		}
	})
}

// garbage returns n NaNs, so a bucket element nobody writes shows.
func garbage(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = math.Float32frombits(0x7fc0dead)
	}
	return s
}

func sameBits(t *testing.T, what string, rank int, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: rank %d element %d is %#08x, want %#08x", what, rank, i, g, w)
		}
	}
}
