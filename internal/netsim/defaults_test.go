package netsim

import (
	"math"
	"testing"
)

func TestFig4OptionDefaults(t *testing.T) {
	topo := Fig4Topology(Fig4Options{})
	f := NewFabric(topo)
	hosts := topo.Hosts()
	// Default bottleneck is 1 Gbps, edges 10 Gbps.
	if bps, _ := routeQuote(t, f, hosts[0], hosts[4], 0); bps != 1*Gbps {
		t.Fatalf("default bottleneck %v, want 1 Gbps", bps)
	}
	if bps, _ := routeQuote(t, f, hosts[0], hosts[1], 0); bps != 10*Gbps {
		t.Fatalf("default edge %v, want 10 Gbps", bps)
	}
}

// routeQuote returns the bottleneck bandwidth at time at and the cumulative
// latency of the route from src to dst.
func routeQuote(t *testing.T, f *Fabric, src, dst NodeID, at float64) (bps, latency float64) {
	t.Helper()
	r, err := f.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	bps = math.Inf(1)
	for _, li := range r.Links {
		bps = min(bps, f.LinkBandwidthAt(li, at))
	}
	return bps, r.LatencySec
}

func TestTraceScaleAtEdges(t *testing.T) {
	tr := &BandwidthTrace{Segments: []TraceSegment{
		{UntilSec: 5, Scale: 0.5},
		{UntilSec: 10, Scale: 0.25},
	}}
	cases := map[float64]float64{
		0:    0.5,
		4.99: 0.5,
		5:    0.25,
		9:    0.25,
		100:  0.25, // last segment extends forever
	}
	for at, want := range cases {
		if got := tr.scaleAt(at); got != want {
			t.Fatalf("scaleAt(%v) = %v, want %v", at, got, want)
		}
	}
	empty := &BandwidthTrace{}
	if empty.scaleAt(3) != 1 {
		t.Fatal("empty trace must scale by 1")
	}
}

func TestQuoteSelf(t *testing.T) {
	topo := FlatTopology(2, Gbps, 0)
	f := NewFabric(topo)
	if bps, lat := routeQuote(t, f, topo.Hosts()[0], topo.Hosts()[0], 0); !math.IsInf(bps, 1) || lat != 0 {
		t.Fatalf("self route: bottleneck %v, latency %v", bps, lat)
	}
}

func TestPathUnreachableNil(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode("a", Host)
	b := topo.AddNode("b", Host)
	if topo.Path(a, b) != nil {
		t.Fatal("disconnected nodes must have nil path")
	}
}
