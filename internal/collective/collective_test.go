package collective

import (
	"math"
	"sync"
	"testing"

	"pactrain/internal/netsim"
)

// runWorkers executes fn on ranks 0..world-1 concurrently and waits.
func runWorkers(world int, fn func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank)
		}(r)
	}
	wg.Wait()
}

func newTestCluster(world int, bw float64) *Cluster {
	topo := netsim.FlatTopology(world, bw, 1e-5)
	return NewCluster(world, netsim.NewFabric(topo))
}

func TestAllReduceSumCorrectness(t *testing.T) {
	world := 4
	c := newTestCluster(world, netsim.Gbps)
	n := 10
	results := make([][]float32, world)
	runWorkers(world, func(rank int) {
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = float32(rank + 1) // sum over ranks = 1+2+3+4 = 10
		}
		c.AllReduceSum(rank, vec, WireFP32, 0)
		results[rank] = vec
	})
	for rank, vec := range results {
		for i, v := range vec {
			if v != 10 {
				t.Fatalf("rank %d elem %d = %v, want 10", rank, i, v)
			}
		}
	}
}

func TestAllReduceUnevenLength(t *testing.T) {
	// n not divisible by world exercises uneven chunk ranges.
	world := 3
	c := newTestCluster(world, netsim.Gbps)
	n := 7
	runWorkers(world, func(rank int) {
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = 1
		}
		c.AllReduceSum(rank, vec, WireFP32, 0)
		for _, v := range vec {
			if v != 3 {
				t.Errorf("rank %d got %v, want 3", rank, v)
			}
		}
	})
}

func TestAllReduceTimeMatchesRingModel(t *testing.T) {
	// Homogeneous flat network: ring all-reduce of S bytes over n workers
	// takes 2(n-1)/n × S/B (each transfer crosses two 1 Gbps edge links,
	// bottleneck B = 1 Gbps) plus latency terms.
	world := 4
	bw := netsim.Gbps
	topo := netsim.FlatTopology(world, bw, 0)
	c := NewCluster(world, netsim.NewFabric(topo))
	n := 1 << 20 // 1Mi elements = 4 MiB fp32
	var end float64
	runWorkers(world, func(rank int) {
		vec := make([]float32, n)
		e := c.AllReduceSum(rank, vec, WireFP32, 0)
		if rank == 0 {
			end = e
		}
	})
	s := float64(n) * 4 * 8 // bits
	want := 2 * float64(world-1) / float64(world) * s / bw
	if math.Abs(end-want)/want > 0.02 {
		t.Fatalf("allreduce time %v, want ≈%v", end, want)
	}
}

func TestAllReduceStartsAtMaxClock(t *testing.T) {
	world := 2
	c := newTestCluster(world, netsim.Gbps)
	ends := make([]float64, world)
	runWorkers(world, func(rank int) {
		vec := []float32{1}
		local := float64(rank) * 10 // rank1 arrives at t=10
		ends[rank] = c.AllReduceSum(rank, vec, WireFP32, local)
	})
	if ends[0] != ends[1] {
		t.Fatal("all workers must observe the same completion time")
	}
	if ends[0] < 10 {
		t.Fatalf("completion %v must be after the last arrival (10)", ends[0])
	}
}

func TestWireFormatScalesTime(t *testing.T) {
	world := 4
	n := 1 << 18
	timeFor := func(wire WireFormat) float64 {
		topo := netsim.FlatTopology(world, netsim.Gbps, 0)
		c := NewCluster(world, netsim.NewFabric(topo))
		var end float64
		runWorkers(world, func(rank int) {
			vec := make([]float32, n)
			e := c.AllReduceSum(rank, vec, wire, 0)
			if rank == 0 {
				end = e
			}
		})
		return end
	}
	t32 := timeFor(WireFP32)
	t16 := timeFor(WireFP16)
	if r := t32 / t16; r < 1.9 || r > 2.1 {
		t.Fatalf("fp16 should halve time; ratio %v", r)
	}
}

func TestAllGatherSparse(t *testing.T) {
	world := 3
	c := newTestCluster(world, netsim.Gbps)
	outs := make([][]SparsePayload, world)
	runWorkers(world, func(rank int) {
		p := SparsePayload{
			Values:  []float32{float32(rank), float32(rank * 2)},
			Indices: []int32{int32(rank), int32(rank + 10)},
		}
		all, _ := c.AllGatherSparse(rank, p, WireSparse, 0)
		outs[rank] = all
	})
	for rank, all := range outs {
		if len(all) != world {
			t.Fatalf("rank %d got %d payloads", rank, len(all))
		}
		for r, p := range all {
			if p.Values[0] != float32(r) || p.Indices[1] != int32(r+10) {
				t.Fatalf("rank %d payload %d corrupted: %+v", rank, r, p)
			}
		}
	}
}

func TestAllGatherCostGrowsWithWorld(t *testing.T) {
	// TopK's transport cost grows with worker count even at fixed K —
	// the congestion effect in §IV-C.
	k := 1 << 16
	cost := func(world int) float64 {
		topo := netsim.FlatTopology(world, netsim.Gbps, 0)
		c := NewCluster(world, netsim.NewFabric(topo))
		var end float64
		runWorkers(world, func(rank int) {
			p := SparsePayload{Values: make([]float32, k), Indices: make([]int32, k)}
			_, e := c.AllGatherSparse(rank, p, WireSparse, 0)
			if rank == 0 {
				end = e
			}
		})
		return end
	}
	c2, c8 := cost(2), cost(8)
	if c8 <= c2*2 {
		t.Fatalf("all-gather cost should grow with world size: world2=%v world8=%v", c2, c8)
	}
}

func TestPSAggregateCorrectAndSlowerThanAllReduce(t *testing.T) {
	world := 8
	n := 1 << 18
	topoA := netsim.FlatTopology(world, netsim.Gbps, 0)
	ca := NewCluster(world, netsim.NewFabric(topoA))
	var psEnd float64
	runWorkers(world, func(rank int) {
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = 1
		}
		e := ca.PSAggregate(rank, vec, vec, WireFP32, 0, nil)
		if rank == 0 {
			psEnd = e
		}
		for _, v := range vec {
			if v != float32(world) {
				t.Errorf("PS sum = %v, want %d", v, world)
			}
		}
	})
	topoB := netsim.FlatTopology(world, netsim.Gbps, 0)
	cb := NewCluster(world, netsim.NewFabric(topoB))
	var arEnd float64
	runWorkers(world, func(rank int) {
		vec := make([]float32, n)
		e := cb.AllReduceSum(rank, vec, WireFP32, 0)
		if rank == 0 {
			arEnd = e
		}
	})
	if psEnd <= arEnd {
		t.Fatalf("PS (%v) should be slower than ring all-reduce (%v) due to incast", psEnd, arEnd)
	}
}

func TestBroadcastBitmapCost(t *testing.T) {
	world := 2
	topo := netsim.FlatTopology(world, netsim.Gbps, 0)
	c := NewCluster(world, netsim.NewFabric(topo))
	n := 8 << 20 // 8Mi elements → 1 MiB bitmap
	var end float64
	runWorkers(world, func(rank int) {
		e := c.BroadcastScaledBitmap(rank, 0, n, BitmapWire, 0)
		if rank == 0 {
			end = e
		}
	})
	// Path host→switch→host is costed at its bottleneck bandwidth (1 Gbps).
	want := (float64(n)*0.125 + 8) * 8 / netsim.Gbps
	if math.Abs(end-want)/want > 0.05 {
		t.Fatalf("bitmap broadcast time %v, want ≈%v", end, want)
	}
}

func TestFig4BottleneckDominatesAllReduce(t *testing.T) {
	world := 8
	n := 1 << 18
	run := func(bottleneck float64) float64 {
		topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: bottleneck})
		c := NewCluster(world, netsim.NewFabric(topo))
		var end float64
		runWorkers(world, func(rank int) {
			vec := make([]float32, n)
			e := c.AllReduceSum(rank, vec, WireFP32, 0)
			if rank == 0 {
				end = e
			}
		})
		return end
	}
	slow := run(100 * netsim.Mbps)
	fast := run(1 * netsim.Gbps)
	if r := slow / fast; r < 5 || r > 12 {
		t.Fatalf("100Mbps/1Gbps ratio %v, want ≈10 (bottleneck-dominated)", r)
	}
}

func TestStatsAccumulate(t *testing.T) {
	world := 2
	c := newTestCluster(world, netsim.Gbps)
	runWorkers(world, func(rank int) {
		vec := []float32{1, 2, 3}
		c.AllReduceSum(rank, vec, WireFP32, 0)
		c.BroadcastScaledBitmap(rank, 0, len(vec), BitmapWire, 0)
	})
	st := c.Stats()
	if st.AllReduceOps != 1 || st.BroadcastOps != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.PayloadBytes <= 0 || st.SimSeconds <= 0 {
		t.Fatalf("stats should accumulate bytes/time: %+v", st)
	}
}

func TestClusterTooManyWorkersPanics(t *testing.T) {
	topo := netsim.FlatTopology(2, netsim.Gbps, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCluster(4, netsim.NewFabric(topo))
}

func TestRepeatedOpsReuseCluster(t *testing.T) {
	// The generation barrier must be reusable across many sequential ops.
	world := 4
	c := newTestCluster(world, netsim.Gbps)
	runWorkers(world, func(rank int) {
		vec := []float32{1}
		for i := 0; i < 50; i++ {
			vec[0] = 1
			c.AllReduceSum(rank, vec, WireFP32, 0)
			if vec[0] != 4 {
				t.Errorf("iteration %d: got %v", i, vec[0])
				return
			}
		}
	})
}
