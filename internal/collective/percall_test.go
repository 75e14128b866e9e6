package collective

import (
	"math"

	"pactrain/internal/netsim"
)

// This file is the oracle the Pricer is held to (FuzzPricerMatchesPerCall):
// the cost functions as they priced before a pricer existed, every route
// resolved once per call, every chunk table and contention array allocated
// per call. Only pow2Floor and Racks are shared with the pricer.

// chunkRange returns the [from,to) element range of ring chunk idx when
// splitting n elements into world chunks.
func chunkRange(idx, n, world int) (int, int) {
	base := n / world
	rem := n % world
	from := idx*base + min(idx, rem)
	size := base
	if idx < rem {
		size++
	}
	return from, from + size
}

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

// transferOrPanic wraps Fabric.TransferTime; a disconnected pair is a
// programming error everywhere the collective layer runs (config validation
// guarantees enough connected hosts).
func transferOrPanic(f *netsim.Fabric, src, dst netsim.NodeID, bytes, t float64) float64 {
	dt, err := f.TransferTime(src, dst, bytes, t)
	if err != nil {
		panic(err)
	}
	return dt
}

// mustRoute resolves one pair, for the collectives that price several steps
// over it; disconnected pairs panic for the same reason.
func mustRoute(f *netsim.Fabric, src, dst netsim.NodeID) netsim.Route {
	r, err := f.Route(src, dst)
	if err != nil {
		panic(err)
	}
	return r
}

// xfer is one concurrent send within a collective step, over a resolved
// route; src orients the route's links.
type xfer struct {
	src   netsim.NodeID
	route netsim.Route
	bytes float64
}

// newXfer resolves the route of a transfer whose pair its collective uses in
// one step only.
func newXfer(f *netsim.Fabric, src, dst netsim.NodeID, bytes float64) xfer {
	return xfer{src, mustRoute(f, src, dst), bytes}
}

// concurrentStep costs a set of simultaneous transfers starting at time t,
// charging directed-link contention: a link direction carrying k of the
// step's transfers serves each at 1/k of its bandwidth. The flat ring never
// needs this (a unidirectional ring puts at most one same-step transfer on
// each directed link, so ringSteps' max-of-transfers is already exact), but
// the tree pattern routinely stacks several pair exchanges onto one
// inter-switch link, where uncontended pricing would be fiction.
func concurrentStep(f *netsim.Fabric, xfers []xfer, t float64) float64 {
	links := f.Topo.Links
	// A hop is a directed link: 2·li, +1 when traversed B→A. load counts the
	// step's transfers per hop; hops lists every priced transfer's, in order.
	load := make([]int32, 2*len(links))
	var hops []int
	for _, x := range xfers {
		if x.bytes <= 0 {
			continue
		}
		cur := x.src
		for _, li := range x.route.Links {
			hop := 2 * li
			if l := &links[li]; l.A == cur {
				cur = l.B
			} else {
				hop, cur = hop+1, l.A
			}
			load[hop]++
			hops = append(hops, hop)
		}
	}
	var step float64
	for _, x := range xfers {
		n := len(x.route.Links)
		if x.bytes <= 0 || n == 0 {
			continue
		}
		bottleneck := math.Inf(1)
		for _, hop := range hops[:n] {
			if bw := f.LinkBandwidthAt(hop/2, t) / float64(load[hop]); bw < bottleneck {
				bottleneck = bw
			}
		}
		hops = hops[n:]
		if dt := x.route.LatencySec + x.bytes*8/bottleneck; dt > step {
			step = dt
		}
	}
	return step
}

// CostTreeAllReduce prices a recursive halving/doubling all-reduce of n
// elements. Non-power-of-two worlds fold the trailing ranks onto partners
// before the exchange and unfold them after, as MPI implementations do.
// Steps are priced contention-aware (concurrentStep): unlike the ring, the
// tree's pair exchanges stack several same-direction transfers onto shared
// inter-switch links, which is exactly where the pattern loses to
// topology-aware alternatives.
func CostTreeAllReduce(f *netsim.Fabric, hosts []netsim.NodeID, n int, wire WireFormat, t float64) float64 {
	world := len(hosts)
	if world <= 1 || n == 0 {
		return 0
	}
	start := t
	pow := pow2Floor(world)
	extra := world - pow
	full := wire.MessageBytes(n)

	// Fold: rank pow+i contributes its full vector to rank i.
	if extra > 0 {
		xs := make([]xfer, 0, extra)
		for i := 0; i < extra; i++ {
			xs = append(xs, newXfer(f, hosts[pow+i], hosts[i], full))
		}
		t += concurrentStep(f, xs, t)
	}

	// Recursive halving (reduce-scatter): each rank keeps half its active
	// range and ships the other half to its partner. Ranges are tracked
	// exactly so uneven element counts stay monotone and deterministic.
	lo := make([]int, pow)
	hi := make([]int, pow)
	for i := range hi {
		hi[i] = n
	}
	var halvings []int
	for span := pow / 2; span >= 1; span /= 2 {
		halvings = append(halvings, span)
	}
	// The doubling rounds mirror the halving rounds pair for pair, so each
	// round's routes are resolved once and kept by rank.
	routes := make([][]netsim.Route, len(halvings))
	for s, span := range halvings {
		routes[s] = make([]netsim.Route, pow)
		for i := range routes[s] {
			routes[s][i] = mustRoute(f, hosts[i], hosts[i^span])
		}
	}
	for s, span := range halvings {
		xs := make([]xfer, 0, pow)
		nlo := make([]int, pow)
		nhi := make([]int, pow)
		for i := 0; i < pow; i++ {
			partner := i ^ span
			mid := lo[i] + (hi[i]-lo[i])/2
			var send int
			if i < partner {
				// Keep the lower half, send the upper.
				send = hi[i] - mid
				nlo[i], nhi[i] = lo[i], mid
			} else {
				send = mid - lo[i]
				nlo[i], nhi[i] = mid, hi[i]
			}
			if send > 0 {
				xs = append(xs, xfer{hosts[i], routes[s][i], wire.MessageBytes(send)})
			}
		}
		lo, hi = nlo, nhi
		t += concurrentStep(f, xs, t)
	}

	// Recursive doubling (all-gather): mirror the halving — each rank sends
	// its whole owned range, doubling it every round.
	for s := len(halvings) - 1; s >= 0; s-- {
		span := halvings[s]
		xs := make([]xfer, 0, pow)
		for i := 0; i < pow; i++ {
			if send := hi[i] - lo[i]; send > 0 {
				xs = append(xs, xfer{hosts[i], routes[s][i], wire.MessageBytes(send)})
			}
		}
		nlo := make([]int, pow)
		nhi := make([]int, pow)
		for i := 0; i < pow; i++ {
			partner := i ^ span
			nlo[i] = min(lo[i], lo[partner])
			nhi[i] = max(hi[i], hi[partner])
		}
		lo, hi = nlo, nhi
		t += concurrentStep(f, xs, t)
	}

	// Unfold: rank i returns the full result to rank pow+i.
	if extra > 0 {
		xs := make([]xfer, 0, extra)
		for i := 0; i < extra; i++ {
			xs = append(xs, newXfer(f, hosts[i], hosts[pow+i], full))
		}
		t += concurrentStep(f, xs, t)
	}
	return t - start
}

// CostTreeAllGather prices a binomial gather of every host's payload onto
// hosts[0] followed by a binomial broadcast of the concatenation. sizes[i]
// is host i's element count.
func CostTreeAllGather(f *netsim.Fabric, hosts []netsim.NodeID, sizes []int, wire WireFormat, t float64) float64 {
	world := len(hosts)
	if world <= 1 {
		return 0
	}
	start := t
	// acc[i] is the element total host i has accumulated so far.
	acc := make([]int, world)
	copy(acc, sizes)
	for span := 1; span < world; span *= 2 {
		var xs []xfer
		for i := span; i < world; i += 2 * span {
			// Host i ships its accumulated block to i-span.
			if acc[i] > 0 {
				xs = append(xs, newXfer(f, hosts[i], hosts[i-span], wire.MessageBytes(acc[i])))
			}
			acc[i-span] += acc[i]
			acc[i] = 0
		}
		t += concurrentStep(f, xs, t)
	}
	var total int
	for _, s := range sizes {
		total += s
	}
	t += CostBinomialBroadcast(f, hosts, 0, wire.MessageBytes(total), t)
	return t - start
}

// rackHosts maps a rack's rank indices to its fabric hosts.
func rackHosts(hosts []netsim.NodeID, rack []int) []netsim.NodeID {
	out := make([]netsim.NodeID, len(rack))
	for i, r := range rack {
		out[i] = hosts[r]
	}
	return out
}

// leaders returns each rack's leader host (its first member).
func leaders(hosts []netsim.NodeID, racks [][]int) []netsim.NodeID {
	out := make([]netsim.NodeID, len(racks))
	for i, rack := range racks {
		out[i] = hosts[rack[0]]
	}
	return out
}

// rackFanOut prices the closing phase of every hierarchical primitive: each
// leader broadcasts msgBytes inside its rack, starting at t. The racks' edge
// links are disjoint, so they proceed concurrently and the phase costs the
// slowest rack.
func rackFanOut(f *netsim.Fabric, hosts []netsim.NodeID, racks [][]int, msgBytes, t float64) float64 {
	var phase float64
	for _, rack := range racks {
		if len(rack) <= 1 {
			continue
		}
		if dt := CostBinomialBroadcast(f, rackHosts(hosts, rack), 0, msgBytes, t); dt > phase {
			phase = dt
		}
	}
	return phase
}

// CostHierarchicalAllReduce prices the two-level all-reduce of n elements:
//
//  1. intra-rack ring reduce-scatter, then the scattered chunks converge on
//     the rack leader (serialized on the leader's edge link — the same
//     incast model as the PS baseline, but confined to one fast rack);
//  2. inter-rack ring all-reduce of the rack sums across the leaders — the
//     only phase that crosses the bottleneck inter-switch links;
//  3. intra-rack binomial broadcast of the global sum from each leader.
//
// Racks proceed concurrently within phases 1 and 3 (their edge links are
// disjoint), so each phase costs the maximum over racks. A single-rack
// topology has no inter-rack phase and no rack structure worth paying for,
// so it falls back to the flat ring.
func CostHierarchicalAllReduce(f *netsim.Fabric, hosts []netsim.NodeID, n int, wire WireFormat, t float64) float64 {
	world := len(hosts)
	if world <= 1 || n == 0 {
		return 0
	}
	racks := Racks(f.Topo, hosts)
	if len(racks) <= 1 {
		return CostRingAllReduce(f, hosts, n, wire, t)
	}
	start := t

	// Phase 1: per-rack reduce-scatter + chunk gather onto the leader.
	var phase float64
	for _, rack := range racks {
		m := len(rack)
		if m <= 1 {
			continue
		}
		rh := rackHosts(hosts, rack)
		msg := chunkBytes(n, m, wire)
		rt := ringSteps(f, rh, msg, m-1, t)
		// Gather the scattered rack-sum chunks to the leader; ingress shares
		// the leader's edge link, so the transfers serialize.
		for i := 1; i < m; i++ {
			if from, to := chunkRange(i, n, m); to > from {
				rt += transferOrPanic(f, rh[i], rh[0], msg[i], rt)
			}
		}
		if rt-t > phase {
			phase = rt - t
		}
	}
	t += phase

	// Phase 2: ring all-reduce of the full rack sums across leaders.
	t += CostRingAllReduce(f, leaders(hosts, racks), n, wire, t)

	// Phase 3: leaders broadcast the global sum inside their racks.
	t += rackFanOut(f, hosts, racks, wire.MessageBytes(n), t)
	return t - start
}

// CostHierarchicalAllGather prices the two-level all-gather: per-rack
// payloads converge on the leader (serialized edge-link ingress), leaders
// ring-all-gather their rack aggregates across the bottleneck, and each
// leader broadcasts the full concatenation inside its rack.
func CostHierarchicalAllGather(f *netsim.Fabric, hosts []netsim.NodeID, sizes []int, wire WireFormat, t float64) float64 {
	world := len(hosts)
	if world <= 1 {
		return 0
	}
	racks := Racks(f.Topo, hosts)
	if len(racks) <= 1 {
		return CostRingAllGather(f, hosts, sizes, wire, t)
	}
	start := t

	// Phase 1: gather member payloads onto each rack leader.
	var phase float64
	rackTotals := make([]int, len(racks))
	for ri, rack := range racks {
		rt := t
		total := sizes[rack[0]]
		for _, r := range rack[1:] {
			if sizes[r] > 0 {
				rt += transferOrPanic(f, hosts[r], hosts[rack[0]], wire.MessageBytes(sizes[r]), rt)
			}
			total += sizes[r]
		}
		rackTotals[ri] = total
		if rt-t > phase {
			phase = rt - t
		}
	}
	t += phase

	// Phase 2: leaders exchange rack aggregates in a ring.
	t += CostRingAllGather(f, leaders(hosts, racks), rackTotals, wire, t)

	// Phase 3: broadcast the concatenation of everything inside each rack.
	var grand int
	for _, s := range sizes {
		grand += s
	}
	t += rackFanOut(f, hosts, racks, wire.MessageBytes(grand), t)
	return t - start
}

// CostHierarchicalBroadcast prices the two-level broadcast: the root hands
// the message to its rack leader if it is not one, the leaders run a
// binomial broadcast among themselves (one bottleneck crossing per rack),
// and each leader fans out inside its rack concurrently.
func CostHierarchicalBroadcast(f *netsim.Fabric, hosts []netsim.NodeID, root int, msgBytes float64, t float64) float64 {
	world := len(hosts)
	if world <= 1 || msgBytes <= 0 {
		return 0
	}
	racks := Racks(f.Topo, hosts)
	if len(racks) <= 1 {
		return CostBinomialBroadcast(f, hosts, root, msgBytes, t)
	}
	start := t
	rootRack := 0
	for ri, rack := range racks {
		for _, r := range rack {
			if r == root {
				rootRack = ri
			}
		}
	}
	if racks[rootRack][0] != root {
		t += transferOrPanic(f, hosts[root], hosts[racks[rootRack][0]], msgBytes, t)
	}
	t += CostBinomialBroadcast(f, leaders(hosts, racks), rootRack, msgBytes, t)
	t += rackFanOut(f, hosts, racks, msgBytes, t)
	return t - start
}

// CostBlockSparseAggregate prices the streaming aggregation: serialized
// ingress of each worker's non-zero blocks into the aggregator (hosts[0]),
// then the union of non-zero result blocks fanned back out to every worker.
func CostBlockSparseAggregate(f *netsim.Fabric, hosts []netsim.NodeID, perWorkerBlocks []int, unionBlocks, blockSize int, byteScale, t float64) float64 {
	world := len(hosts)
	if world <= 1 {
		return 0
	}
	if byteScale <= 0 {
		byteScale = 1
	}
	start := t
	for i := 1; i < world; i++ {
		t += transferOrPanic(f, hosts[i], hosts[0], BlockBytes(perWorkerBlocks[i], blockSize, byteScale), t)
	}
	out := BlockBytes(unionBlocks, blockSize, byteScale)
	for i := 1; i < world; i++ {
		t += transferOrPanic(f, hosts[0], hosts[i], out, t)
	}
	return t - start
}
