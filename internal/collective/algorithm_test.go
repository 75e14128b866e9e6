package collective

import (
	"math"
	"testing"

	"pactrain/internal/netsim"
)

func TestAlgorithmRegistry(t *testing.T) {
	names := AlgorithmNames()
	want := []string{"ring", "tree", "hierarchical"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("registry order %v, want %v", names, want)
		}
	}
	for _, name := range append([]string{""}, want...) {
		a, err := AlgorithmByName(name)
		if err != nil {
			t.Fatalf("AlgorithmByName(%q): %v", name, err)
		}
		if name != "" && a.Name != name {
			t.Fatalf("AlgorithmByName(%q).Name = %q", name, a.Name)
		}
	}
	if a, _ := AlgorithmByName(""); a.Name != DefaultAlgorithm {
		t.Fatalf("empty selector resolved to %q, want %q", a.Name, DefaultAlgorithm)
	}
	if canon, err := CanonicalAlgorithm(""); err != nil || canon != "ring" {
		t.Fatalf("CanonicalAlgorithm(\"\") = %q, %v", canon, err)
	}
	if _, err := CanonicalAlgorithm("butterfly"); err == nil {
		t.Fatal("unknown algorithm name did not error")
	}
}

// TestRingAlgorithmBitExact pins the refactoring contract: dispatching
// through the registry's ring algorithm must reproduce the original cost
// functions bit-for-bit, because every pre-existing fingerprint, cached
// result, and report was priced through them.
func TestRingAlgorithmBitExact(t *testing.T) {
	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: 500 * netsim.Mbps})
	hosts := topo.Hosts()
	ring := MustAlgorithm("ring")
	for _, n := range []int{1, 7, 1 << 10, 1 << 18} {
		a := ring.AllReduce(netsim.NewFabric(topo), hosts, n, WireFP32, 1.5)
		b := CostRingAllReduce(netsim.NewFabric(topo), hosts, n, WireFP32, 1.5)
		if a != b {
			t.Fatalf("ring AllReduce(%d) = %v, legacy %v", n, a, b)
		}
	}
	sizes := []int{3, 0, 99, 1 << 12, 5, 1, 2, 64}
	if a, b := NewPricer(ring, netsim.NewFabric(topo), hosts).AllGather(sizes, WireSparse, 0),
		CostRingAllGather(netsim.NewFabric(topo), hosts, sizes, WireSparse, 0); a != b {
		t.Fatalf("ring AllGather = %v, legacy %v", a, b)
	}
	if a, b := NewPricer(ring, netsim.NewFabric(topo), hosts).Broadcast(0, 1<<20, 2),
		CostBinomialBroadcast(netsim.NewFabric(topo), hosts, 0, 1<<20, 2); a != b {
		t.Fatalf("ring Broadcast = %v, legacy %v", a, b)
	}
}

// TestTreeMatchesRingOnUniformFabric is the issue's sanity invariant: on a
// uniform single-switch fabric with negligible latency, recursive
// halving/doubling moves the same 2n(w-1)/w bytes per host as the ring at
// the same per-step bandwidth, so the two algorithms agree within
// tolerance.
func TestTreeMatchesRingOnUniformFabric(t *testing.T) {
	topo := netsim.FlatTopology(8, netsim.Gbps, 0)
	hosts := topo.Hosts()
	n := 1 << 18 // divisible by 8: all chunk splits are exact
	ring := MustAlgorithm("ring").AllReduce(netsim.NewFabric(topo), hosts, n, WireFP32, 0)
	tree := MustAlgorithm("tree").AllReduce(netsim.NewFabric(topo), hosts, n, WireFP32, 0)
	if ring <= 0 || tree <= 0 {
		t.Fatalf("degenerate costs: ring %v, tree %v", ring, tree)
	}
	if rel := math.Abs(tree-ring) / ring; rel > 1e-9 {
		t.Fatalf("tree %v vs ring %v on uniform fabric (rel diff %v)", tree, ring, rel)
	}
}

// TestHierarchicalBeatsRingOnTwoRackBottleneck is the tentpole's headline
// invariant: with a 10× slower inter-switch link, two-level aggregation —
// which crosses the bottleneck once per rack stream instead of on nearly
// every ring step — must be strictly faster than the flat ring.
func TestHierarchicalBeatsRingOnTwoRackBottleneck(t *testing.T) {
	topo := netsim.TwoRackTopology(netsim.TwoRackOptions{
		Hosts: 8, BottleneckBps: netsim.Gbps, EdgeBps: 10 * netsim.Gbps,
	})
	hosts := topo.Hosts()
	n := 1 << 18
	ring := MustAlgorithm("ring").AllReduce(netsim.NewFabric(topo), hosts, n, WireFP32, 0)
	hier := MustAlgorithm("hierarchical").AllReduce(netsim.NewFabric(topo), hosts, n, WireFP32, 0)
	if hier >= ring {
		t.Fatalf("hierarchical %v not faster than flat ring %v on bottlenecked two-rack fabric", hier, ring)
	}
}

// TestAlgorithmCostMonotone sweeps every registered algorithm on a flat, a
// Fig. 4, and a two-rack fabric: each primitive's cost must be
// non-decreasing in the element count.
func TestAlgorithmCostMonotone(t *testing.T) {
	topos := map[string]*netsim.Topology{
		"flat":    netsim.FlatTopology(8, netsim.Gbps, 1e-5),
		"fig4":    netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: 500 * netsim.Mbps}),
		"tworack": netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: 8, BottleneckBps: 100 * netsim.Mbps}),
	}
	ladder := []int{0, 1, 2, 17, 256, 4096, 65536, 1 << 20}
	for _, name := range AlgorithmNames() {
		alg := MustAlgorithm(name)
		for tn, topo := range topos {
			hosts := topo.Hosts()
			prevAR, prevAG, prevBC := -1.0, -1.0, -1.0
			for _, n := range ladder {
				f := netsim.NewFabric(topo)
				ar := alg.AllReduce(f, hosts, n, WireFP32, 0)
				sizes := make([]int, len(hosts))
				for i := range sizes {
					sizes[i] = n
				}
				ag := NewPricer(alg, netsim.NewFabric(topo), hosts).AllGather(sizes, WireSparse, 0)
				bc := NewPricer(alg, netsim.NewFabric(topo), hosts).Broadcast(0, float64(n)*4, 0)
				if ar < prevAR || ag < prevAG || bc < prevBC {
					t.Fatalf("%s on %s not monotone at n=%d: allreduce %v<%v, allgather %v<%v, broadcast %v<%v",
						name, tn, n, ar, prevAR, ag, prevAG, bc, prevBC)
				}
				prevAR, prevAG, prevBC = ar, ag, bc
			}
		}
	}
}

// TestRacksDerivation checks the rack-grouping rule on the three preset
// topologies: groups follow the switch structure, rank order is preserved,
// and a flat switch collapses to one rack.
func TestRacksDerivation(t *testing.T) {
	fig4 := netsim.Fig4Topology(netsim.Fig4Options{})
	racks := Racks(fig4, fig4.Hosts())
	wantFig4 := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7}}
	if len(racks) != len(wantFig4) {
		t.Fatalf("fig4 racks %v, want %v", racks, wantFig4)
	}
	for i := range wantFig4 {
		if len(racks[i]) != len(wantFig4[i]) {
			t.Fatalf("fig4 racks %v, want %v", racks, wantFig4)
		}
		for j := range wantFig4[i] {
			if racks[i][j] != wantFig4[i][j] {
				t.Fatalf("fig4 racks %v, want %v", racks, wantFig4)
			}
		}
	}
	flat := netsim.FlatTopology(6, netsim.Gbps, 0)
	if r := Racks(flat, flat.Hosts()); len(r) != 1 || len(r[0]) != 6 {
		t.Fatalf("flat racks %v, want one rack of 6", r)
	}
	two := netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: 7})
	if r := Racks(two, two.Hosts()); len(r) != 2 || len(r[0]) != 4 || len(r[1]) != 3 {
		t.Fatalf("two-rack racks %v, want 4+3", r)
	}
}

// TestClusterCorrectUnderEveryAlgorithm runs the live data plane — including
// a non-power-of-two world, which exercises the tree's fold/unfold when
// priced — and checks the sums and gathers, then that every algorithm
// prices the same ops: the algorithm moves the clock, never the bytes'
// values, and the cluster, a data plane only, knows no algorithm.
func TestClusterCorrectUnderEveryAlgorithm(t *testing.T) {
	for _, world := range []int{4, 6} {
		topo := netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: world, BottleneckBps: netsim.Gbps})
		f := netsim.NewFabric(topo)
		c := NewCluster(world, f)
		sizes := make([]int, world)
		runWorkers(world, func(rank int) {
			vec := []float32{float32(rank + 1), 1}
			c.AllReduce(rank, vec, vec, nil)
			wantSum := float32(world*(world+1)) / 2
			if vec[0] != wantSum || vec[1] != float32(world) {
				t.Errorf("world %d: sum = %v, want [%v %v]", world, vec, wantSum, world)
				return
			}
			p := SparsePayload{Values: []float32{float32(rank)}, Indices: []int32{int32(rank)}}
			all, _ := c.AllGatherSparse(rank, p, WireSparse, 0)
			for r, got := range all {
				if len(got.Values) != 1 || got.Values[0] != float32(r) {
					t.Errorf("world %d: gather payload %d corrupted: %+v", world, r, got)
					return
				}
			}
			sizes[rank] = len(all[rank].Values)
		})
		hosts := topo.Hosts()[:world]
		for _, name := range AlgorithmNames() {
			alg := MustAlgorithm(name)
			for op, d := range map[string]float64{
				"all-reduce": alg.AllReduce(f, hosts, 2, WireFP32, 0),
				"all-gather": NewPricer(alg, f, hosts).AllGather(sizes, WireSparse, 0),
				"broadcast":  NewPricer(alg, f, hosts).Broadcast(1, BitmapWire.MessageBytes(3), 0),
			} {
				if d <= 0 {
					t.Fatalf("%s world %d: %s costs %v, want > 0", name, world, op, d)
				}
			}
		}
	}
}

// TestTreeContentionChargesSharedLinks pins the contention model: on the
// two-rack fabric the tree's widest exchange puts world/2 same-direction
// transfers on the bottleneck link, so it must cost strictly more than the
// flat ring, which never shares a directed link within a step.
func TestTreeContentionChargesSharedLinks(t *testing.T) {
	topo := netsim.TwoRackTopology(netsim.TwoRackOptions{
		Hosts: 8, BottleneckBps: 100 * netsim.Mbps, EdgeBps: 10 * netsim.Gbps,
	})
	hosts := topo.Hosts()
	n := 1 << 18
	ring := MustAlgorithm("ring").AllReduce(netsim.NewFabric(topo), hosts, n, WireFP32, 0)
	tree := MustAlgorithm("tree").AllReduce(netsim.NewFabric(topo), hosts, n, WireFP32, 0)
	if tree <= ring {
		t.Fatalf("tree %v should lose to ring %v on an oversubscribed inter-switch link", tree, ring)
	}
}
