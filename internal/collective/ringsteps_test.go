package collective

import (
	"math"
	"math/rand"
	"testing"

	"pactrain/internal/netsim"
)

// ringStepsPerTransfer is the oracle ringSteps is held to: every transfer of
// every step priced through Fabric.Send, the way every ring was walked
// before uniform rings were priced once per step.
func ringStepsPerTransfer(f *netsim.Fabric, hosts []netsim.NodeID, msg []float64, steps int, t float64) float64 {
	world := len(hosts)
	routes := make([]netsim.Route, world)
	for i := range routes {
		r, err := f.Route(hosts[i], hosts[(i+1)%world])
		if err != nil {
			panic(err)
		}
		routes[i] = r
	}
	for s := 0; s < steps; s++ {
		var step float64
		for i, r := range routes {
			if dt := f.Send(r, msg[((i-s)%world+world)%world], t); dt > step {
				step = dt
			}
		}
		t += step
	}
	return t
}

// FuzzRingStepsMatchPerTransfer prices random rings through the per-call
// ringSteps and the pricer's ring.walk, each against the per-transfer loop
// bit for bit: uniform rings (a flat switch, one rack of a racked fabric,
// the leaders of every rack) that take the once-per-step path, non-uniform
// ones (Fig. 4, a two-rack fabric, a racked fabric across racks, a flat
// switch with one slow link) that keep the loop (the walk prices one
// rotation of it and replays that on rings of up to 32 hosts), and — with
// flags bit 0 — any of them under a bandwidth trace that flips scale faster
// than a step, where only the per-transfer loop is exact. world is 2–64 (at most 8 on Fig. 4); chunk
// sizes come from chunks, zeros included; flags' high bits pick the step
// count.
func FuzzRingStepsMatchPerTransfer(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint8(0x20), uint64(1), []byte{1, 0, 7, 255, 3})
	f.Add(uint8(1), uint8(62), uint8(0xfe), uint64(2), []byte{0, 0, 9})
	f.Add(uint8(2), uint8(6), uint8(0x11), uint64(3), []byte{4, 4, 4, 4})
	f.Add(uint8(3), uint8(5), uint8(0x40), uint64(4), []byte{200, 0, 1, 17, 90})
	f.Add(uint8(4), uint8(13), uint8(0x33), uint64(5), []byte{})
	f.Add(uint8(5), uint8(20), uint8(0x0c), uint64(6), []byte{1})
	// Rings that are not uniform and carry more steps than hosts: Fig. 4's
	// all-reduce (8 hosts, 14 steps) untraced, which replays its first
	// rotation, and traced, which must price every step; and 40 hosts
	// across racks, more than the walk keeps costs for.
	f.Add(uint8(4), uint8(6), uint8(14<<1), uint64(7), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint8(4), uint8(6), uint8(14<<1|1), uint64(8), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint8(3), uint8(38), uint8(47<<1), uint64(9), []byte{8, 0, 2, 200})
	f.Fuzz(func(t *testing.T, kind, worldB, flags uint8, seed uint64, chunks []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		world := 2 + int(worldB)%63
		bw, lat := math.Exp(14+rng.Float64()*10), rng.Float64()*1e-3
		var topo *netsim.Topology
		var hosts []netsim.NodeID
		racked := func(racks, per int, pick func(all []netsim.NodeID) []netsim.NodeID) {
			topo = netsim.RackedTopology(netsim.RackedOptions{Racks: racks, HostsPerRack: per,
				BottleneckBps: bw, EdgeBps: math.Exp(14 + rng.Float64()*10), LatencySec: lat})
			hosts = pick(topo.Hosts())
		}
		switch kind % 6 {
		case 0: // uniform: one switch; an odd seed halves one host's link,
			// so the routes' latencies match and their bottlenecks do not
			topo = netsim.FlatTopology(world, bw, lat)
			hosts = topo.Hosts()
			if seed%2 == 1 {
				topo.Links[rng.Intn(world)].BandwidthBps /= 2
			}
		case 1: // uniform: one rack of two
			racked(2, world, func(all []netsim.NodeID) []netsim.NodeID { return all[:world] })
		case 2: // uniform: every rack's first host
			racked(world, 2, func(all []netsim.NodeID) []netsim.NodeID {
				leaders := make([]netsim.NodeID, world)
				for i := range leaders {
					leaders[i] = all[2*i]
				}
				return leaders
			})
		case 3: // non-uniform: racks of three, crossed by the ring
			racked((world+2)/3, 3, func(all []netsim.NodeID) []netsim.NodeID { return all[:world] })
		case 4: // non-uniform: Fig. 4
			topo = netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: bw, LatencySec: lat})
			hosts = topo.Hosts()[:min(world, 8)]
		case 5: // non-uniform: two racks
			topo = netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: world, BottleneckBps: bw, LatencySec: lat})
			hosts = topo.Hosts()
		}
		fab := netsim.NewFabric(topo)
		if flags&1 != 0 {
			// Every link of the last host's route alternates full and quarter
			// speed every 20 µs.
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
		msg := make([]float64, len(hosts))
		unit := math.Exp(rng.Float64() * 12)
		for i := range msg {
			if len(chunks) > 0 {
				msg[i] = float64(chunks[i%len(chunks)]) * unit
			}
		}
		steps := int(flags>>1) % (2 * len(hosts))
		at := rng.Float64() * 1e-3
		want := ringStepsPerTransfer(fab, hosts, msg, steps, at)
		r, err := newRing(fab, hosts)
		if err != nil {
			t.Fatal(err)
		}
		walked := r.walk(fab, func(c int) float64 { return msg[c] }, steps, at)
		for name, got := range map[string]float64{"ringSteps": ringSteps(fab, hosts, msg, steps, at), "the pricer's walk": walked} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("kind %d, %d hosts, %d steps, traced %v: %s %x, per transfer %x",
					kind%6, len(hosts), steps, flags&1 != 0, name, got, want)
			}
		}
	})
}
