package collective

import (
	"fmt"
	"testing"

	"pactrain/internal/netsim"
)

// BenchmarkAlgorithmAllReduceCost measures the pure pricing path of each
// registered algorithm on the two-rack fabric — the hot loop of bandwidth
// re-costing, which prices thousands of recorded collectives per sweep.
func BenchmarkAlgorithmAllReduceCost(b *testing.B) {
	topo := netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: 8, BottleneckBps: netsim.Gbps})
	hosts := topo.Hosts()
	n := 1 << 20
	for _, name := range AlgorithmNames() {
		alg := MustAlgorithm(name)
		b.Run(name, func(b *testing.B) {
			f := netsim.NewFabric(topo)
			b.SetBytes(int64(n * 4))
			for i := 0; i < b.N; i++ {
				alg.AllReduce(f, hosts, n, WireFP32, float64(i))
			}
		})
	}
}

// BenchmarkClusterAllReduce measures the live data plane (worker rendezvous
// + summation); pricing is the cost functions' and benchmarked above.
func BenchmarkClusterAllReduce(b *testing.B) {
	const world = 8
	n := 1 << 18
	topo := netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: world, BottleneckBps: netsim.Gbps})
	c := NewCluster(world, netsim.NewFabric(topo))
	vecs := make([][]float32, world)
	for r := range vecs {
		vecs[r] = make([]float32, n)
	}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		for r := 0; r < world; r++ {
			go func(rank int) {
				c.AllReduce(rank, vecs[rank], vecs[rank], nil)
				done <- struct{}{}
			}(r)
		}
		for r := 0; r < world; r++ {
			<-done
		}
	}
}

// BenchmarkRackDerivation measures the rack grouping a hierarchical pricer
// resolves once, on its first op.
func BenchmarkRackDerivation(b *testing.B) {
	for _, hostsN := range []int{8, 64} {
		topo := netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: hostsN, BottleneckBps: netsim.Gbps})
		hosts := topo.Hosts()
		b.Run(fmt.Sprintf("hosts%d", hostsN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Racks(topo, hosts)
			}
		})
	}
}

// BenchmarkHierarchicalAllReduce prices one fp32 all-reduce on the racked
// fabric at the largescale experiment's sizes — its hot loop: 2(w−1) ring
// steps per rack over routes one pricer resolved before the loop.
func BenchmarkHierarchicalAllReduce(b *testing.B) {
	for _, racks := range []int{16, 64} {
		topo := netsim.RackedTopology(netsim.RackedOptions{Racks: racks, HostsPerRack: 64})
		hosts := topo.Hosts()
		b.Run(fmt.Sprint(len(hosts)), func(b *testing.B) {
			p := NewPricer(MustAlgorithm("hierarchical"), netsim.NewFabric(topo), hosts)
			p.AllReduce(1, WireFP32, 0) // resolve the parts
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += p.AllReduce(1<<20, WireFP32, 0)
			}
		})
	}
}

// BenchmarkRingAllReduce prices the default algorithm on the paper's
// eight-host fabric: what every re-costed iteration of the suite pays.
func BenchmarkRingAllReduce(b *testing.B) {
	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: netsim.Gbps})
	hosts := topo.Hosts()
	b.Run(fmt.Sprint(len(hosts)), func(b *testing.B) {
		p := NewPricer(MustAlgorithm("ring"), netsim.NewFabric(topo), hosts)
		p.AllReduce(1, WireFP32, 0) // resolve the ring
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += p.AllReduce(1<<20, WireFP32, 0)
		}
	})
}

var benchSink float64
