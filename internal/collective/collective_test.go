package collective

import (
	"math"
	"slices"
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
		c.AllReduce(rank, vec, vec, nil)
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
		c.AllReduce(rank, vec, vec, nil)
		for _, v := range vec {
			if v != 3 {
				t.Errorf("rank %d got %v, want 3", rank, v)
			}
		}
	})
}

// flatFabric returns a fabric over a flat topology of world hosts with no
// latency, and its hosts.
func flatFabric(world int, bw float64) (*netsim.Fabric, []netsim.NodeID) {
	topo := netsim.FlatTopology(world, bw, 0)
	return netsim.NewFabric(topo), topo.Hosts()
}

func TestAllReduceTimeMatchesRingModel(t *testing.T) {
	// Homogeneous flat network: ring all-reduce of S bytes over n workers
	// takes 2(n-1)/n × S/B (each transfer crosses two 1 Gbps edge links,
	// bottleneck B = 1 Gbps) plus latency terms.
	world := 4
	bw := netsim.Gbps
	n := 1 << 20 // 1Mi elements = 4 MiB fp32
	f, hosts := flatFabric(world, bw)
	end := MustAlgorithm("ring").AllReduce(f, hosts, n, WireFP32, 0)
	s := float64(n) * 4 * 8 // bits
	want := 2 * float64(world-1) / float64(world) * s / bw
	if math.Abs(end-want)/want > 0.02 {
		t.Fatalf("allreduce time %v, want ≈%v", end, want)
	}
}

func TestWireFormatScalesTime(t *testing.T) {
	world := 4
	n := 1 << 18
	f, hosts := flatFabric(world, netsim.Gbps)
	timeFor := func(wire WireFormat) float64 {
		return MustAlgorithm("ring").AllReduce(f, hosts, n, wire, 0)
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
		f, hosts := flatFabric(world, netsim.Gbps)
		return NewPricer(MustAlgorithm("ring"), f, hosts).AllGather(slices.Repeat([]int{k}, world), WireSparse, 0)
	}
	c2, c8 := cost(2), cost(8)
	if c8 <= c2*2 {
		t.Fatalf("all-gather cost should grow with world size: world2=%v world8=%v", c2, c8)
	}
}

// TestPSAggregateCorrectAndSlowerThanAllReduce checks the parameter-server
// transport: its data plane is AllReduce's (the PS hook sums through it),
// and its price, the incast onto one server, exceeds the ring's.
func TestPSAggregateCorrectAndSlowerThanAllReduce(t *testing.T) {
	world := 8
	n := 1 << 18
	c := newTestCluster(world, netsim.Gbps)
	runWorkers(world, func(rank int) {
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = 1
		}
		c.AllReduce(rank, vec, vec, nil)
		for _, v := range vec {
			if v != float32(world) {
				t.Errorf("PS sum = %v, want %d", v, world)
				return
			}
		}
	})
	f, hosts := flatFabric(world, netsim.Gbps)
	psEnd := NewPricer(Algorithm{}, f, hosts).PS(n, WireFP32, 0)
	arEnd := MustAlgorithm("ring").AllReduce(f, hosts, n, WireFP32, 0)
	if psEnd <= arEnd {
		t.Fatalf("PS (%v) should be slower than ring all-reduce (%v) due to incast", psEnd, arEnd)
	}
}

func TestBroadcastBitmapCost(t *testing.T) {
	n := 8 << 20 // 8Mi elements → 1 MiB bitmap
	f, hosts := flatFabric(2, netsim.Gbps)
	end := NewPricer(MustAlgorithm("ring"), f, hosts).Broadcast(0, BitmapWire.MessageBytes(n), 0)
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
		return MustAlgorithm("ring").AllReduce(netsim.NewFabric(topo), topo.Hosts()[:world], n, WireFP32, 0)
	}
	slow := run(100 * netsim.Mbps)
	fast := run(1 * netsim.Gbps)
	if r := slow / fast; r < 5 || r > 12 {
		t.Fatalf("100Mbps/1Gbps ratio %v, want ≈10 (bottleneck-dominated)", r)
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
			c.AllReduce(rank, vec, vec, nil)
			if vec[0] != 4 {
				t.Errorf("iteration %d: got %v", i, vec[0])
				return
			}
		}
	})
}
