package netsim

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// naiveFabric is the reference Route+Send are held to: every transfer
// searches the graph breadth-first and reads each link's trace from a map,
// the way TransferTime was written before routes were resolved ahead.
type naiveFabric struct {
	topo   *Topology
	traces map[int]*BandwidthTrace
}

func (n *naiveFabric) transferTime(src, dst NodeID, payload, t float64) (float64, bool) {
	if src == dst {
		return 0, true
	}
	path := n.topo.pathBFS(src, dst)
	if path == nil {
		return 0, false
	}
	bottleneck, latency := math.Inf(1), 0.0
	for _, li := range path {
		bw := n.topo.Links[li].BandwidthBps
		if tr := n.traces[li]; tr != nil {
			bw *= tr.scaleAt(t)
		}
		if bw < bottleneck {
			bottleneck = bw
		}
		latency += n.topo.Links[li].LatencySec
	}
	return latency + payload*8/bottleneck, true
}

// FuzzRouteMatchesBFS builds a random graph — a tree, a forest (cut > 0) or
// a graph with cycles and parallel links (extra > 0) — with random link
// speeds, latencies and traces, then prices random transfers at random
// launch times three ways: TransferTime, Route+Send with the route reused,
// and the naive reference. Paths must agree link for link with the
// breadth-first search, durations bit for bit, and an unreachable pair must
// be an error, never a panic.
func FuzzRouteMatchesBFS(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(0), uint8(0), uint8(0))  // tree, no traces
	f.Add(uint64(2), uint8(40), uint8(0), uint8(0), uint8(5))  // deep tree, traced
	f.Add(uint64(3), uint8(12), uint8(4), uint8(0), uint8(3))  // cycles
	f.Add(uint64(4), uint8(9), uint8(0), uint8(2), uint8(1))   // forest: unreachable pairs
	f.Add(uint64(5), uint8(6), uint8(1), uint8(1), uint8(0))   // n-1 links, one cycle, one island
	f.Add(uint64(6), uint8(1), uint8(0), uint8(0), uint8(0))   // single node
	f.Add(uint64(7), uint8(2), uint8(3), uint8(0), uint8(2))   // parallel links only
	f.Add(uint64(8), uint8(64), uint8(0), uint8(0), uint8(64)) // every link traced
	f.Fuzz(func(t *testing.T, seed uint64, nodes, extra, cut, traced uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 1 + int(nodes)%64
		topo := NewTopology()
		for i := 0; i < n; i++ {
			topo.AddNode("n", NodeKind(rng.Intn(2)))
		}
		link := func(a, b int) {
			topo.AddLink(NodeID(a), NodeID(b), math.Exp(rng.Float64()*20), rng.Float64()*1e-3)
		}
		// A random recursive tree in shuffled node order, minus cut links.
		order := rng.Perm(n)
		for i := 1; i < n; i++ {
			if int(cut) > 0 && rng.Intn(n) < int(cut) {
				continue
			}
			link(order[i], order[rng.Intn(i)])
		}
		for i := 0; i < int(extra)%8 && n > 1; i++ {
			a := rng.Intn(n)
			link(a, (a+1+rng.Intn(n-1))%n)
		}

		fab := NewFabric(topo)
		naive := &naiveFabric{topo: topo, traces: map[int]*BandwidthTrace{}}
		for i := 0; i < int(traced) && len(topo.Links) > 0; i++ {
			tr := &BandwidthTrace{LinkIndex: rng.Intn(len(topo.Links))}
			until := 0.0
			for s := rng.Intn(4); s > 0; s-- {
				until += rng.Float64()
				tr.Segments = append(tr.Segments, TraceSegment{UntilSec: until, Scale: 0.05 + rng.Float64()})
			}
			fab.SetTrace(tr)
			naive.traces[tr.LinkIndex] = tr
		}

		wantTree := len(topo.Links) == n-1 && slices.IndexFunc(topo.Nodes, func(nd Node) bool {
			return nd.ID != 0 && topo.pathBFS(0, nd.ID) == nil
		}) < 0
		if gotTree := topo.index() != nil; gotTree != wantTree {
			t.Fatalf("rooted index built = %v on a graph with %d nodes, %d links, tree = %v", gotTree, n, len(topo.Links), wantTree)
		}

		for i := 0; i < 24; i++ {
			src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			want := topo.pathBFS(src, dst)
			if src == dst {
				want = []int{}
			}
			if got := topo.Path(src, dst); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("Path(%d,%d) = %v, breadth-first search %v", src, dst, got, want)
			}
			route, err := fab.Route(src, dst)
			if (err != nil) != (want == nil) {
				t.Fatalf("Route(%d,%d) error %v, breadth-first path %v", src, dst, err, want)
			}
			// Each resolved route is priced twice, at two launch times.
			for k := 0; k < 2; k++ {
				payload, at := math.Floor(rng.Float64()*1e7), rng.Float64()*3
				wantDt, ok := naive.transferTime(src, dst, payload, at)
				gotDt, err := fab.TransferTime(src, dst, payload, at)
				if (err == nil) != ok {
					t.Fatalf("TransferTime(%d,%d) error %v, reference reachable = %v", src, dst, err, ok)
				}
				if !ok {
					continue
				}
				if sent := fab.Send(route, payload, at); gotDt != wantDt || sent != wantDt {
					t.Fatalf("transfer %d→%d of %v B at t=%v: TransferTime %x, Route+Send %x, reference %x",
						src, dst, payload, at, gotDt, sent, wantDt)
				}
			}
		}
	})
}

// TestFabricRefusesChangedTopology: a fabric notes the link count at
// NewFabric, so links added afterwards must surface as an error from every
// routing entry point rather than a route priced over a link set the fabric
// was not built for.
func TestFabricRefusesChangedTopology(t *testing.T) {
	t.Parallel()
	topo := FlatTopology(2, Gbps, 1e-4)
	hosts := topo.Hosts()
	f := NewFabric(topo)
	if _, err := f.TransferTime(hosts[0], hosts[1], 1, 0); err != nil {
		t.Fatal(err)
	}
	late := topo.AddNode("late", Host)
	topo.AddLink(late, hosts[0], Gbps, 1e-4)
	const want = "topology changed after NewFabric"
	if _, err := f.TransferTime(hosts[1], late, 1, 0); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("TransferTime over a link added after NewFabric: error %v, want %q", err, want)
	}
	if _, err := f.Route(hosts[0], hosts[1]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Route on a stale fabric: error %v, want %q", err, want)
	}
	// A fabric created after the change routes over the new link.
	if dt, err := NewFabric(topo).TransferTime(hosts[1], late, 1, 0); err != nil || dt <= 0 {
		t.Fatalf("fresh fabric: %v, %v", dt, err)
	}
}

// TestPathIndexSharedAcrossFabrics: fabrics on several goroutines share one
// topology (engine jobs reusing a config's topology) and race to build its
// rooted index on first use; every one must route identically. They also
// quote on one shared traced fabric at once (every rank's adaptive
// controller quotes on the live fabric), which pricing must not disturb.
func TestPathIndexSharedAcrossFabrics(t *testing.T) {
	t.Parallel()
	topo := RackedTopology(RackedOptions{Racks: 8, HostsPerRack: 8})
	hosts := topo.Hosts()
	want := NewFabric(RackedTopology(RackedOptions{Racks: 8, HostsPerRack: 8}))
	trace := &BandwidthTrace{LinkIndex: topo.InterSwitchLinks()[3], Segments: []TraceSegment{
		{UntilSec: 1, Scale: 0.25}, {UntilSec: math.Inf(1), Scale: 0.5}}}
	shared := NewFabric(topo)
	shared.SetTrace(trace)
	want.SetTrace(trace)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := NewFabric(topo)
			for i := range hosts {
				src, dst := hosts[(i+g)%len(hosts)], hosts[(i*7+3)%len(hosts)]
				got, err := f.Route(src, dst)
				ref, _ := want.Route(src, dst)
				if err != nil || !slices.Equal(got.Links, ref.Links) || got.LatencySec != ref.LatencySec ||
					got.BottleneckBps != ref.BottleneckBps {
					t.Errorf("goroutine %d: route %d→%d = %+v (%v), want %+v", g, src, dst, got, err, ref)
					return
				}
				at := float64(i%3) / 2
				dt, err := shared.TransferTime(src, dst, 1<<20, at)
				if wantDt, _ := want.TransferTime(src, dst, 1<<20, at); err != nil || dt != wantDt {
					t.Errorf("goroutine %d: shared fabric quotes %d→%d at %v as %v (%v), want %v", g, src, dst, at, dt, err, wantDt)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
