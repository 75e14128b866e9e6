package collective

import (
	"slices"
	"testing"

	"pactrain/internal/netsim"
)

// primitiveCosts prices the three primitives of one algorithm on a fresh
// fabric each, with every host contributing n elements.
func primitiveCosts(alg Algorithm, topo *netsim.Topology, n int) (allReduce, allGather, broadcast float64) {
	hosts := topo.Hosts()
	sizes := make([]int, len(hosts))
	for i := range sizes {
		sizes[i] = n
	}
	return alg.AllReduce(netsim.NewFabric(topo), hosts, n, WireFP32, 0),
		alg.AllGather(netsim.NewFabric(topo), hosts, sizes, WireFP32, 0),
		alg.Broadcast(netsim.NewFabric(topo), hosts, 0, WireFP32.MessageBytes(n), 0)
}

// TestAlgorithmCostMonotoneInBandwidth: raising a link speed — the
// bottleneck's, the edges', or both — never makes any primitive of any
// algorithm slower. Together with TestAlgorithmCostMonotone (elements) this
// is what lets the adaptive controller and the bandwidth sweeps order
// configurations by their quotes.
func TestAlgorithmCostMonotoneInBandwidth(t *testing.T) {
	t.Parallel()
	ladder := []float64{10 * netsim.Mbps, 100 * netsim.Mbps, 500 * netsim.Mbps, netsim.Gbps, 10 * netsim.Gbps, 40 * netsim.Gbps}
	builders := map[string]func(bottleneck, edge float64) *netsim.Topology{
		"fig4": func(b, e float64) *netsim.Topology {
			return netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: b, EdgeBps: e})
		},
		"tworack-5": func(b, e float64) *netsim.Topology {
			return netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: 5, BottleneckBps: b, EdgeBps: e})
		},
		"racked-3x4": func(b, e float64) *netsim.Topology {
			return netsim.RackedTopology(netsim.RackedOptions{Racks: 3, HostsPerRack: 4, BottleneckBps: b, EdgeBps: e})
		},
	}
	sweeps := map[string]func(bw float64) (bottleneck, edge float64){
		"bottleneck": func(bw float64) (float64, float64) { return bw, 10 * netsim.Gbps },
		"edge":       func(bw float64) (float64, float64) { return netsim.Gbps, bw },
		"both":       func(bw float64) (float64, float64) { return bw, bw },
	}
	for _, name := range AlgorithmNames() {
		alg := MustAlgorithm(name)
		for tn, build := range builders {
			for sn, sweep := range sweeps {
				for _, n := range []int{1, 1000, 1<<18 + 3} {
					var prev [3]float64
					for i, bw := range ladder {
						ar, ag, bc := primitiveCosts(alg, build(sweep(bw)), n)
						cur := [3]float64{ar, ag, bc}
						for p, label := range []string{"all-reduce", "all-gather", "broadcast"} {
							if cur[p] <= 0 || (i > 0 && cur[p] > prev[p]) {
								t.Fatalf("%s %s on %s, n=%d: %v s at %s %v bps after %v s at %v bps",
									name, label, tn, n, cur[p], sn, bw, prev[p], ladder[max(i-1, 0)])
							}
						}
						prev = cur
					}
				}
			}
		}
	}
}

// TestAlgorithmCostAboveBisectionBound: cutting any inter-switch link splits
// the hosts in two, and no schedule can finish before the bytes that must
// cross the cut have crossed it at the link's speed — the other side's sum
// for an all-reduce, every payload of the far side for an all-gather, the
// message for a broadcast. Every algorithm must price at or above it.
func TestAlgorithmCostAboveBisectionBound(t *testing.T) {
	t.Parallel()
	topos := map[string]*netsim.Topology{
		"fig4":       netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: 200 * netsim.Mbps}),
		"tworack-8":  netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: 8, BottleneckBps: 100 * netsim.Mbps}),
		"tworack-5":  netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: 5, BottleneckBps: netsim.Gbps}),
		"racked-3x3": netsim.RackedTopology(netsim.RackedOptions{Racks: 3, HostsPerRack: 3, BottleneckBps: 2 * netsim.Gbps}),
	}
	for tn, topo := range topos {
		hosts := topo.Hosts()
		for _, cut := range topo.InterSwitchLinks() {
			// Hosts whose path to host 0 crosses the cut are on the far side.
			far := 0
			for _, h := range hosts {
				if slices.Contains(topo.Path(hosts[0], h), cut) {
					far++
				}
			}
			if far == 0 || far == len(hosts) {
				t.Fatalf("%s: link %d does not separate the hosts", tn, cut)
			}
			bps := topo.Links[cut].BandwidthBps
			for _, n := range []int{1, 4097, 1 << 20} {
				payload := float64(n) * WireFP32.BytesPerElement
				bound := map[string]float64{
					"all-reduce": payload * 8 / bps,
					"all-gather": payload * float64(max(far, len(hosts)-far)) * 8 / bps,
					"broadcast":  payload * 8 / bps,
				}
				for _, name := range AlgorithmNames() {
					ar, ag, bc := primitiveCosts(MustAlgorithm(name), topo, n)
					for label, got := range map[string]float64{"all-reduce": ar, "all-gather": ag, "broadcast": bc} {
						if got < bound[label] {
							t.Errorf("%s %s on %s, n=%d: %v s is below the %v s link %d alone needs",
								name, label, tn, n, got, bound[label], cut)
						}
					}
				}
			}
		}
	}
}

// TestAlgorithmsAgreeOnTwoHosts: with two hosts on one switch there is one
// pattern to choose from — each host sends the other half the vector, twice
// — so the three all-reduces and broadcasts must agree to the last bit. The
// tree's all-gather is the documented exception: it gathers onto rank 0 and
// broadcasts back, two serialized steps where the ring exchanges in one.
func TestAlgorithmsAgreeOnTwoHosts(t *testing.T) {
	t.Parallel()
	topo := netsim.FlatTopology(2, netsim.Gbps, 50e-6)
	ring := MustAlgorithm("ring")
	for _, n := range []int{1, 2, 7, 4096, 1<<20 + 1} {
		rAR, rAG, rBC := primitiveCosts(ring, topo, n)
		for _, name := range []string{"tree", "hierarchical"} {
			ar, ag, bc := primitiveCosts(MustAlgorithm(name), topo, n)
			if ar != rAR || bc != rBC {
				t.Errorf("%s, n=%d: all-reduce %x vs ring %x, broadcast %x vs ring %x", name, n, ar, rAR, bc, rBC)
			}
			switch {
			case name == "tree" && ag < rAG:
				t.Errorf("tree, n=%d: gather+broadcast %v beat the ring's single exchange %v", n, ag, rAG)
			case name != "tree" && ag != rAG:
				t.Errorf("%s, n=%d: all-gather %x vs ring %x", name, n, ag, rAG)
			}
		}
	}
}
