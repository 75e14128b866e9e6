package collective

import (
	"math"

	"pactrain/internal/netsim"
)

// This file exposes the pure timing models behind each collective as
// standalone functions. The Cluster methods use them for in-situ timing, and
// the experiment harness re-uses them to re-cost a recorded training run
// under a different bandwidth without re-training (the convergence
// trajectory is bandwidth-independent; only the clock changes).

// Every cost function below resolves each (src, dst) pair it uses once per
// call and prices its steps over the resolved routes (DESIGN.md §4): a pair
// used in a single step goes through transferOrPanic, the pairs a ring
// reuses on every step are held as routes across the steps.

// chunkBytes returns the wire size of each of the world chunks a ring splits
// n elements into.
func chunkBytes(n, world int, wire WireFormat) []float64 {
	msg := make([]float64, world)
	for c := range msg {
		from, to := chunkRange(c, n, world)
		msg[c] = wire.MessageBytes(to - from)
	}
	return msg
}

// ringSteps prices consecutive ring steps starting at time t and returns the
// time the last one ends. In step s every host i sends msg[(i-s) mod world]
// to host i+1 concurrently — a unidirectional ring puts at most one of a
// step's transfers on each directed link, so the step costs its slowest
// transfer. Every step sends each chunk once, so when the fabric has no
// traces and every ring route has one latency and bottleneck, every step
// costs the largest chunk's transfer (a transfer's cost is monotone in its
// bytes) and the walk is that step added steps times, in order.
func ringSteps(f *netsim.Fabric, hosts []netsim.NodeID, msg []float64, steps int, t float64) float64 {
	world := len(hosts)
	routes := make([]netsim.Route, world)
	uniform := f.TimeInvariant()
	for i := range routes {
		routes[i] = mustRoute(f, hosts[i], hosts[(i+1)%world])
		uniform = uniform && routes[i].LatencySec == routes[0].LatencySec &&
			routes[i].BottleneckBps == routes[0].BottleneckBps
	}
	if uniform {
		largest := math.Inf(-1) // the strict > skips NaN chunks, as the loop below does
		for _, m := range msg {
			if m > largest {
				largest = m
			}
		}
		var step float64
		if dt := f.Send(routes[0], largest, t); dt > step {
			step = dt
		}
		for range steps {
			t += step
		}
		return t
	}
	for s := 0; s < steps; s++ {
		var step float64
		c := (world - s%world) % world
		for _, r := range routes {
			if dt := f.Send(r, msg[c], t); dt > step {
				step = dt
			}
			if c++; c == world {
				c = 0
			}
		}
		t += step
	}
	return t
}

// CostRingAllReduce returns the duration of a ring all-reduce of n elements
// with the given wire format starting at time t: world-1 reduce-scatter
// steps in which host i sends chunk i-s, then world-1 all-gather steps in
// which it sends chunk i+1-s' — with s = world-1+s' the same chunk i-s, so
// the 2(world-1) steps are one rotation over the chunk sizes.
func CostRingAllReduce(f *netsim.Fabric, hosts []netsim.NodeID, n int, wire WireFormat, t float64) float64 {
	world := len(hosts)
	if world <= 1 || n == 0 {
		return 0
	}
	return ringSteps(f, hosts, chunkBytes(n, world, wire), 2*(world-1), t) - t
}

// CostRingAllGather returns the duration of a ring all-gather in which each
// worker i contributes sizes[i] elements.
func CostRingAllGather(f *netsim.Fabric, hosts []netsim.NodeID, sizes []int, wire WireFormat, t float64) float64 {
	world := len(hosts)
	if world <= 1 {
		return 0
	}
	msg := make([]float64, world)
	for i := range msg {
		msg[i] = wire.MessageBytes(sizes[i])
	}
	return ringSteps(f, hosts, msg, world-1, t) - t
}

// CostBinomialBroadcast returns the duration of a binomial-tree broadcast of
// msgBytes from root.
func CostBinomialBroadcast(f *netsim.Fabric, hosts []netsim.NodeID, root int, msgBytes float64, t float64) float64 {
	world := len(hosts)
	if world <= 1 || msgBytes <= 0 {
		return 0
	}
	start := t
	for span := 1; span < world; span *= 2 {
		var step float64
		for rel := 0; rel < span && rel+span < world; rel++ {
			from := (root + rel) % world
			to := (root + rel + span) % world
			if dt := transferOrPanic(f, hosts[from], hosts[to], msgBytes, t); dt > step {
				step = dt
			}
		}
		t += step
	}
	return t - start
}

// CostPSAggregate returns the duration of a parameter-server round trip for
// n elements: serialized ingress from every worker to the server, then
// serialized egress back. The serialization models the incast on the
// server's edge link.
func CostPSAggregate(f *netsim.Fabric, hosts []netsim.NodeID, n int, wire WireFormat, t float64) float64 {
	world := len(hosts)
	if world <= 1 || n == 0 {
		return 0
	}
	start := t
	msg := wire.MessageBytes(n)
	for i := 1; i < world; i++ {
		t += transferOrPanic(f, hosts[i], hosts[0], msg, t)
	}
	for i := 1; i < world; i++ {
		t += transferOrPanic(f, hosts[0], hosts[i], msg, t)
	}
	return t - start
}

// BitmapWire is the wire format of a sparsity bitmap (1 bit per element).
var BitmapWire = WireFormat{Name: "bitmap", BytesPerElement: 0.125, HeaderBytes: 8}
