package netsim

import "testing"

var benchSink float64

// BenchmarkTransferTime prices one cross-fabric transfer, path resolution
// included: on a tree (the rooted-index walk every preset takes) and on the
// same fabric with one redundant link (breadth-first search).
func BenchmarkTransferTime(b *testing.B) {
	cyclic := Fig4Topology(Fig4Options{})
	cyclic.AddLink(0, 2, Gbps, 100e-6)
	for _, c := range []struct {
		name string
		topo *Topology
	}{{"tree", Fig4Topology(Fig4Options{})}, {"cyclic", cyclic}} {
		b.Run(c.name, func(b *testing.B) {
			f := NewFabric(c.topo)
			hosts := c.topo.Hosts()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dt, err := f.TransferTime(hosts[0], hosts[7], 1<<20, 0)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += dt
			}
		})
	}
}
