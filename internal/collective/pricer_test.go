package collective

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"pactrain/internal/netsim"
)

// raceEnabled is set under the race detector, where sync.Pool drops items
// at random and the tree's pooled scratch is reallocated.
var raceEnabled bool

// perCall is the oracle of one algorithm: its three per-call cost functions.
type perCall struct {
	allReduce func(f *netsim.Fabric, hosts []netsim.NodeID, n int, wire WireFormat, t float64) float64
	allGather func(f *netsim.Fabric, hosts []netsim.NodeID, sizes []int, wire WireFormat, t float64) float64
	broadcast func(f *netsim.Fabric, hosts []netsim.NodeID, root int, msgBytes float64, t float64) float64
}

var perCallOracles = map[string]perCall{
	"ring":         {CostRingAllReduce, CostRingAllGather, CostBinomialBroadcast},
	"tree":         {CostTreeAllReduce, CostTreeAllGather, CostBinomialBroadcast},
	"hierarchical": {CostHierarchicalAllReduce, CostHierarchicalAllGather, CostHierarchicalBroadcast},
}

// fuzzWires are the wire formats recorded ops carry, plus a lite-twin scaled
// one (per-element bytes scaled, header kept) and a headerless one, whose
// zero-element messages are empty.
var fuzzWires = []WireFormat{WireFP32, WireFP16, WireInt8, WireSparse, BitmapWire,
	{Name: "scaled", BytesPerElement: 4 * 37.25, HeaderBytes: 8}, {Name: "bare", BytesPerElement: 0.25}}

// FuzzPricerMatchesPerCall prices random ops through one pricer per
// algorithm and through the per-call oracle (percall_test.go), bit for bit:
// every OpKind's price (all-reduce, all-gather, parameter server,
// block-sparse, the bitmap broadcast from rank 0 and from another root)
// under ring, tree and hierarchical, on a flat switch (an odd seed slows one
// link, so its ring is not uniform), Fig. 4, a two-rack fabric, a racked
// fabric and a racked fabric with its hosts shuffled across racks. Worlds
// are 2–64 (at most 8 on Fig. 4); element counts come from data, zeros
// included, so they are ragged and often below the tree's power of two;
// launch times are random. Flags bit 0 traces the links of the last host's
// route to host 0 — installed after each pricer's first op, so a trace
// arriving after the pricer was built must still be read.
func FuzzPricerMatchesPerCall(f *testing.F) {
	f.Add(uint8(0), uint8(14), uint8(0), uint64(1), []byte{1, 0, 7, 255, 3})
	f.Add(uint8(0), uint8(6), uint8(1), uint64(2), []byte{9, 9, 0})
	f.Add(uint8(1), uint8(6), uint8(0), uint64(3), []byte{200, 0, 1, 17, 90})
	f.Add(uint8(1), uint8(6), uint8(1), uint64(4), []byte{4, 4, 4, 4})
	f.Add(uint8(2), uint8(11), uint8(0), uint64(5), []byte{0, 3})
	f.Add(uint8(2), uint8(3), uint8(1), uint64(6), []byte{1})
	f.Add(uint8(3), uint8(62), uint8(0), uint64(7), []byte{})
	f.Add(uint8(3), uint8(22), uint8(1), uint64(8), []byte{5, 0, 0, 250})
	f.Add(uint8(4), uint8(30), uint8(0), uint64(9), []byte{77, 1, 0})
	f.Add(uint8(4), uint8(9), uint8(1), uint64(10), []byte{2, 40})
	// Rings that are not uniform: Fig. 4's eight hosts, whose all-reduce
	// replays its first rotation untraced (and prices every step traced),
	// and 40 and 64 hosts, more than the walk keeps step costs for.
	f.Add(uint8(1), uint8(6), uint8(0), uint64(11), []byte{255, 3, 0, 17})
	f.Add(uint8(1), uint8(6), uint8(1), uint64(12), []byte{255, 3, 0, 17})
	f.Add(uint8(2), uint8(38), uint8(0), uint64(13), []byte{6, 1})
	f.Add(uint8(0), uint8(62), uint8(0), uint64(15), []byte{9, 0, 4})
	f.Fuzz(func(t *testing.T, kind, worldB, flags uint8, seed uint64, data []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		world := 2 + int(worldB)%63
		bw, lat := math.Exp(14+rng.Float64()*10), rng.Float64()*1e-3
		var topo *netsim.Topology
		var hosts []netsim.NodeID
		switch kind % 5 {
		case 0: // one switch
			topo = netsim.FlatTopology(world, bw, lat)
			hosts = topo.Hosts()
			if seed%2 == 1 {
				topo.Links[rng.Intn(world)].BandwidthBps /= 2
			}
		case 1: // Fig. 4
			topo = netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: bw, LatencySec: lat})
			hosts = topo.Hosts()[:min(world, 8)]
		case 2: // two racks
			topo = netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: world, BottleneckBps: bw, LatencySec: lat})
			hosts = topo.Hosts()
		case 3, 4: // racks of 1–8 hosts; case 4 deals the ranks across racks
			per := 1 + rng.Intn(8)
			topo = netsim.RackedTopology(netsim.RackedOptions{Racks: (world + per - 1) / per, HostsPerRack: per,
				BottleneckBps: bw, EdgeBps: math.Exp(14 + rng.Float64()*10), LatencySec: lat})
			hosts = topo.Hosts()[:world]
			if kind%5 == 4 {
				rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
			}
		}
		fab := netsim.NewFabric(topo)
		traced := false
		trace := func() {
			if flags&1 == 0 || traced {
				return
			}
			traced = true
			r, err := fab.Route(hosts[len(hosts)-1], hosts[0])
			if err != nil {
				t.Fatal(err)
			}
			var segs []netsim.TraceSegment
			for k := 1; k <= 4096; k++ {
				segs = append(segs, netsim.TraceSegment{UntilSec: float64(k) * 20e-6, Scale: 0.25 + 0.75*float64(k%2)})
			}
			for _, li := range r.Links {
				fab.SetTrace(&netsim.BandwidthTrace{LinkIndex: li, Segments: segs})
			}
		}

		next := 0
		count := func() int { // 0 for a zero byte, ragged otherwise
			if len(data) == 0 {
				return rng.Intn(1 << 12)
			}
			b := int(data[next%len(data)])
			next++
			return b*(1+int(seed%97)) + b%7
		}
		counts := func() []int {
			out := make([]int, len(hosts))
			for i := range out {
				out[i] = count()
			}
			return out
		}
		same := func(what string, alg string, got, want float64) {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s: kind %d, %d hosts, traced %v: pricer %x, per call %x",
					alg, what, kind%5, len(hosts), traced, got, want)
			}
		}
		for _, name := range AlgorithmNames() {
			p, oracle := NewPricer(MustAlgorithm(name), fab, hosts), perCallOracles[name]
			for op := range 3 {
				if op == 1 {
					trace()
				}
				wire := fuzzWires[rng.Intn(len(fuzzWires))]
				at := rng.Float64() * 1e-3
				n, sizes := count(), counts()
				same("all-reduce", name, p.AllReduce(n, wire, at), oracle.allReduce(fab, hosts, n, wire, at))
				same("all-gather", name, p.AllGather(sizes, wire, at), oracle.allGather(fab, hosts, sizes, wire, at))
				same("ps", name, p.PS(n, wire, at), CostPSAggregate(fab, hosts, n, wire, at))
				union, blockSize, scale := count(), 1+rng.Intn(512), rng.Float64()*3-0.5
				same("block-sparse", name, p.BlockSparse(sizes, union, blockSize, scale, at),
					CostBlockSparseAggregate(fab, hosts, sizes, union, blockSize, scale, at))
				msg := wire.MessageBytes(n)
				same("broadcast", name, p.Broadcast(0, msg, at), oracle.broadcast(fab, hosts, 0, msg, at))
				root := rng.Intn(len(hosts))
				same("broadcast from a root", name, p.Broadcast(root, msg, at), oracle.broadcast(fab, hosts, root, msg, at))
			}
		}
	})
}

// pricerCases are the pricers the allocation and concurrency tests hold:
// a uniform ring, a two-rack ring, a tree and hierarchical over 32 racks of
// 32.
func pricerCases() []struct {
	name string
	p    *Pricer
} {
	flat := netsim.FlatTopology(16, netsim.Gbps, 1e-4)
	two := netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: 12, BottleneckBps: 100 * netsim.Mbps})
	racked := netsim.RackedTopology(netsim.RackedOptions{Racks: 32, HostsPerRack: 32, BottleneckBps: netsim.Gbps})
	return []struct {
		name string
		p    *Pricer
	}{
		{"uniform ring", NewPricer(MustAlgorithm("ring"), netsim.NewFabric(flat), flat.Hosts())},
		{"two-rack ring", NewPricer(MustAlgorithm("ring"), netsim.NewFabric(two), two.Hosts())},
		{"two-rack tree", NewPricer(MustAlgorithm("tree"), netsim.NewFabric(two), two.Hosts())},
		{"racked 32x32 hierarchical", NewPricer(MustAlgorithm("hierarchical"), netsim.NewFabric(racked), racked.Hosts())},
	}
}

// TestPricerAllReduceAllocatesNothing: once a pricer's parts are resolved,
// an all-reduce allocates nothing — no route, chunk table, rack grouping or
// contention array per op.
func TestPricerAllReduceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the tree's scratch")
	}
	for _, c := range pricerCases() {
		at := 0.0
		price := func() {
			at += 1e-3
			benchSink += c.p.AllReduce(1<<16+5, WireFP32, at)
		}
		price()
		if n := testing.AllocsPerRun(50, price); n != 0 {
			t.Errorf("%s: %v allocations per all-reduce", c.name, n)
		}
	}
}

// TestPricerSharedAcrossGoroutines: the trainer's ranks price their ops on
// one pricer at once, its parts resolved by whichever op comes first; every
// goroutine must see the prices a pricer of its own gives serially.
func TestPricerSharedAcrossGoroutines(t *testing.T) {
	t.Parallel()
	const workers, ops = 8, 24
	price := func(p *Pricer, k int) [3]float64 {
		n := 1 + k*k*977%100003
		sizes := make([]int, p.World())
		for i := range sizes {
			sizes[i] = (n + 31*i) % 300
		}
		at := float64(k) * 1e-3
		return [3]float64{p.AllReduce(n, WireFP16, at), p.AllGather(sizes, WireSparse, at), p.Broadcast(0, float64(n), at)}
	}
	shared, serial := pricerCases(), pricerCases()
	for c := range shared {
		want := make([][3]float64, ops)
		for k := range want {
			want[k] = price(serial[c].p, k)
		}
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ops {
					k := (i + 5*w) % ops
					if got := price(shared[c].p, k); got != want[k] {
						t.Errorf("%s, worker %d, op %d: %v, serially %v", shared[c].name, w, k, got, want[k])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestPricerRefusesChangedTopology: a pricer resolves routes once, so a link
// added to the topology afterwards must still make every op panic, as
// Fabric.Route errors, rather than price over the old link set.
func TestPricerRefusesChangedTopology(t *testing.T) {
	topo := netsim.FlatTopology(4, netsim.Gbps, 1e-4)
	f := netsim.NewFabric(topo)
	p := NewPricer(MustAlgorithm("ring"), f, topo.Hosts())
	p.AllReduce(100, WireFP32, 0)
	topo.AddLink(topo.Hosts()[0], topo.Hosts()[1], netsim.Gbps, 1e-4)
	for name, op := range map[string]func(){
		"all-reduce": func() { p.AllReduce(100, WireFP32, 0) },
		"all-gather": func() { p.AllGather([]int{1, 2, 3, 4}, WireSparse, 0) },
		"broadcast":  func() { p.Broadcast(0, 10, 0) },
		"ps":         func() { p.PS(100, WireFP32, 0) },
		"sparse":     func() { p.BlockSparse([]int{1, 2, 3, 4}, 4, 8, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s priced on a topology changed after NewFabric", name)
				}
			}()
			op()
		}()
	}
}
