package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFig4Shape(t *testing.T) {
	topo := Fig4Topology(Fig4Options{BottleneckBps: 100 * Mbps})
	hosts := topo.Hosts()
	if len(hosts) != 8 {
		t.Fatalf("Fig4 has %d hosts, want 8", len(hosts))
	}
	switches := 0
	for _, n := range topo.Nodes {
		if n.Kind == Switch {
			switches++
		}
	}
	if switches != 3 {
		t.Fatalf("Fig4 has %d switches, want 3", switches)
	}
	if inter := topo.InterSwitchLinks(); len(inter) != 2 {
		t.Fatalf("Fig4 has %d inter-switch links, want 2", len(inter))
	}
}

func TestPathWithinAndAcrossSwitches(t *testing.T) {
	topo := Fig4Topology(Fig4Options{BottleneckBps: 100 * Mbps})
	hosts := topo.Hosts()
	// S1→S2 share vswitch0: 2 hops.
	if p := topo.Path(hosts[0], hosts[1]); len(p) != 2 {
		t.Fatalf("same-switch path has %d hops, want 2", len(p))
	}
	// S1→S8 crosses both bottlenecks: 4 hops.
	if p := topo.Path(hosts[0], hosts[7]); len(p) != 4 {
		t.Fatalf("cross path has %d hops, want 4", len(p))
	}
	if p := topo.Path(hosts[0], hosts[0]); len(p) != 0 {
		t.Fatal("self path should be empty")
	}
}

func TestQuoteBottleneck(t *testing.T) {
	topo := Fig4Topology(Fig4Options{BottleneckBps: 100 * Mbps, EdgeBps: 10 * Gbps, LatencySec: 1e-4})
	f := NewFabric(topo)
	hosts := topo.Hosts()
	// Same switch: bottleneck is the 10 Gbps edge.
	if bps, _ := routeQuote(t, f, hosts[0], hosts[1], 0); bps != 10*Gbps {
		t.Fatalf("same-switch bottleneck %v, want 10G", bps)
	}
	// Across switches: the 100 Mbps inter-switch link dominates.
	bps, lat := routeQuote(t, f, hosts[0], hosts[4], 0)
	if bps != 100*Mbps {
		t.Fatalf("cross-switch bottleneck %v, want 100M", bps)
	}
	if math.Abs(lat-3e-4) > 1e-12 {
		t.Fatalf("latency %v, want 3e-4 (3 hops)", lat)
	}
}

func TestTransferTimePhysics(t *testing.T) {
	topo := FlatTopology(2, 1*Gbps, 0)
	f := NewFabric(topo)
	hosts := topo.Hosts()
	// 1 Gbit payload over 1 Gbps = 1 second.
	bytes := 1e9 / 8
	dt, err := f.TransferTime(hosts[0], hosts[1], bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dt-1) > 1e-9 {
		t.Fatalf("transfer time %v, want 1s", dt)
	}
}

func TestTransferSelfIsFree(t *testing.T) {
	topo := FlatTopology(2, 1*Gbps, 1e-3)
	f := NewFabric(topo)
	hosts := topo.Hosts()
	dt, err := f.TransferTime(hosts[0], hosts[0], 1e9, 0)
	if err != nil || dt != 0 {
		t.Fatalf("self transfer: dt=%v err=%v", dt, err)
	}
}

func TestDisconnectedIsError(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode("a", Host)
	b := topo.AddNode("b", Host)
	f := NewFabric(topo)
	if _, err := f.TransferTime(a, b, 1, 0); err == nil {
		t.Fatal("expected error for disconnected nodes")
	}
}

func TestBandwidthTrace(t *testing.T) {
	topo := FlatTopology(2, 1*Gbps, 0)
	f := NewFabric(topo)
	hosts := topo.Hosts()
	// Halve bandwidth for the first 10 seconds on both host links.
	f.SetTrace(&BandwidthTrace{LinkIndex: 0, Segments: []TraceSegment{{UntilSec: 10, Scale: 0.5}, {UntilSec: math.Inf(1), Scale: 1}}})
	f.SetTrace(&BandwidthTrace{LinkIndex: 1, Segments: []TraceSegment{{UntilSec: 10, Scale: 0.5}, {UntilSec: math.Inf(1), Scale: 1}}})
	bytes := 1e9 / 8
	early, _ := f.TransferTime(hosts[0], hosts[1], bytes, 0)
	late, _ := f.TransferTime(hosts[0], hosts[1], bytes, 20)
	if math.Abs(early-2) > 1e-9 {
		t.Fatalf("early transfer %v, want 2s at half bandwidth", early)
	}
	if math.Abs(late-1) > 1e-9 {
		t.Fatalf("late transfer %v, want 1s at full bandwidth", late)
	}
}

// TestTraceOutsideTheTopology: a trace on a link index the topology lacks
// scales no link, yet the fabric is no longer time-invariant, as with any
// installed trace; a later trace on a link replaces the earlier one.
func TestTraceOutsideTheTopology(t *testing.T) {
	topo := FlatTopology(2, 1*Gbps, 0)
	hosts := topo.Hosts()
	half := []TraceSegment{{UntilSec: math.Inf(1), Scale: 0.5}}
	for _, li := range []int{-1, len(topo.Links), 1 << 20} {
		f := NewFabric(topo)
		f.SetTrace(&BandwidthTrace{LinkIndex: li, Segments: half})
		if f.TimeInvariant() {
			t.Errorf("link %d: a fabric with a trace installed reports time-invariant", li)
		}
		for l := range topo.Links {
			if bw := f.LinkBandwidthAt(l, 0); bw != topo.Links[l].BandwidthBps {
				t.Errorf("a trace on link %d scales link %d to %v", li, l, bw)
			}
		}
		if dt, _ := f.TransferTime(hosts[0], hosts[1], 1e9/8, 0); dt != 1 {
			t.Errorf("link %d: transfer %v, want 1s at full bandwidth", li, dt)
		}
	}
	bare := NewTopology()
	bare.AddNode("a", Host)
	f := NewFabric(bare)
	f.SetTrace(&BandwidthTrace{LinkIndex: 0, Segments: half})
	if f.TimeInvariant() {
		t.Error("a fabric without links but with a trace reports time-invariant")
	}
	f = NewFabric(topo)
	if !f.TimeInvariant() {
		t.Fatal("a fabric without traces reports time-varying")
	}
	f.SetTrace(&BandwidthTrace{LinkIndex: 1, Segments: half})
	f.SetTrace(&BandwidthTrace{LinkIndex: 1, Segments: []TraceSegment{{UntilSec: math.Inf(1), Scale: 0.25}}})
	if bw := f.LinkBandwidthAt(1, 0); bw != 0.25*Gbps || f.LinkBandwidthAt(0, 0) != Gbps {
		t.Fatalf("link 1 at %v after its second trace, want %v", bw, 0.25*Gbps)
	}
}

func TestAddLinkValidation(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode("a", Host)
	b := topo.AddNode("b", Host)
	for _, fn := range []func(){
		func() { topo.AddLink(a, a, 1, 0) },
		func() { topo.AddLink(a, b, 0, 0) },
		func() { topo.AddLink(a, NodeID(99), 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: transfer time is monotone in payload size and inversely monotone
// in bottleneck bandwidth.
func TestPropertyTransferMonotonicity(t *testing.T) {
	f := func(kb uint16, mbps uint8) bool {
		bw := (float64(mbps%100) + 1) * Mbps
		topo := FlatTopology(2, bw, 1e-4)
		fab := NewFabric(topo)
		hosts := topo.Hosts()
		small := float64(kb%1000+1) * 1000
		big := small * 2
		t1, err1 := fab.TransferTime(hosts[0], hosts[1], small, 0)
		t2, err2 := fab.TransferTime(hosts[0], hosts[1], big, 0)
		if err1 != nil || err2 != nil {
			return false
		}
		if t2 <= t1 {
			return false
		}
		topo2 := FlatTopology(2, bw*2, 1e-4)
		fab2 := NewFabric(topo2)
		t3, err3 := fab2.TransferTime(topo2.Hosts()[0], topo2.Hosts()[1], small, 0)
		if err3 != nil {
			return false
		}
		return t3 < t1 || small == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFlatTopology(t *testing.T) {
	topo := FlatTopology(4, 1*Gbps, 0)
	if len(topo.Hosts()) != 4 {
		t.Fatal("FlatTopology host count wrong")
	}
	if len(topo.InterSwitchLinks()) != 0 {
		t.Fatal("FlatTopology should have no inter-switch links")
	}
}

func TestStragglerPresets(t *testing.T) {
	ms := OneSlowRank(4, 2.0)
	want := []float64{1, 1, 1, 2}
	for i := range want {
		if ms[i] != want[i] {
			t.Fatalf("OneSlowRank(4, 2) = %v, want %v", ms, want)
		}
	}
	if OneSlowRank(0, 2) != nil {
		t.Fatal("OneSlowRank with no ranks must be nil")
	}
	ramp := RampRanks(3, 2.0)
	if ramp[0] != 1 || ramp[1] != 1.5 || ramp[2] != 2 {
		t.Fatalf("RampRanks(3, 2) = %v, want [1 1.5 2]", ramp)
	}
	if one := RampRanks(1, 3.0); one[0] != 3 {
		t.Fatalf("single-rank ramp = %v, want [3]", one)
	}
}
