package collective

import (
	"fmt"
	"math"

	"pactrain/internal/netsim"
)

// Algorithm prices the three symmetric collective primitives — all-reduce,
// all-gather, broadcast — for one communication pattern over a fabric. The
// Cluster executes the data plane identically under every algorithm (the
// sum is the sum); only the clock differs, so a run recorded under one
// algorithm can be re-costed exactly under another (see core.CostIter).
//
// Every cost function returns a duration. They must be pure functions of
// their arguments (plus the fabric's traces, which see absolute time t):
// training and re-costing call them with identical arguments at identical
// times, and the bit-exact re-costing contract (DESIGN.md §5) rests on the
// two paths agreeing to the last ulp. They must also be monotone in the
// element count (TestAlgorithmCostMonotone).
//
// The parameter-server and block-sparse transports are deliberately outside
// this table: they are scheme-specific topologies of their own (incast onto
// one aggregator), not interchangeable patterns for the same logical
// operation.
type Algorithm struct {
	// Name is the selector identifier ("ring", "tree", "hierarchical").
	Name string
	// Description is a one-line summary for the catalog surfaces
	// (`pactrain-bench -list-collectives`, GET /v1/collectives).
	Description string
	// AllReduce prices summing n elements across hosts.
	AllReduce func(f *netsim.Fabric, hosts []netsim.NodeID, n int, wire WireFormat, t float64) float64
	// AllGather prices exchanging per-host payloads of sizes[i] elements so
	// every host holds all of them.
	AllGather func(f *netsim.Fabric, hosts []netsim.NodeID, sizes []int, wire WireFormat, t float64) float64
	// Broadcast prices distributing msgBytes from hosts[root] to all hosts.
	Broadcast func(f *netsim.Fabric, hosts []netsim.NodeID, root int, msgBytes float64, t float64) float64
}

// DefaultAlgorithm is the algorithm an empty selector resolves to — the
// paper's flat ring, the behavior every pre-existing experiment was costed
// with.
const DefaultAlgorithm = "ring"

// algorithms is the fixed algorithm table, in catalog order (ring first,
// the default).
var algorithms = []Algorithm{
	// The paper's flat ring: reduce-scatter + all-gather all-reduce, ring
	// all-gather, binomial-tree broadcast (cost.go).
	{
		Name:        "ring",
		Description: "flat ring reduce-scatter + all-gather, the paper's setup and the default",
		AllReduce:   CostRingAllReduce,
		AllGather:   CostRingAllGather,
		Broadcast:   CostBinomialBroadcast,
	},
	// Rabenseifner's recursive halving/doubling all-reduce and a binomial
	// gather to rank 0 followed by a binomial broadcast: on a uniform
	// fabric it moves the ring's 2n(world-1)/world bytes per host in
	// log₂(world) rounds instead of world-1, the small-message regime.
	{
		Name:        "tree",
		Description: "recursive halving/doubling all-reduce, binomial gather+broadcast (small-message regime)",
		AllReduce:   CostTreeAllReduce,
		AllGather:   CostTreeAllGather,
		Broadcast:   CostBinomialBroadcast,
	},
	// The two-level, topology-aware pattern: hosts grouped into racks by
	// their attached switch (Racks), heavy intra-rack traffic on fast edge
	// links, one rack-aggregated stream per collective across the
	// bottleneck. On a single-rack topology it falls back to the flat ring.
	{
		Name:        "hierarchical",
		Description: "two-level rack-aware aggregation: intra-rack rings, leaders-only across the bottleneck",
		AllReduce:   CostHierarchicalAllReduce,
		AllGather:   CostHierarchicalAllGather,
		Broadcast:   CostHierarchicalBroadcast,
	},
}

// AlgorithmNames lists the algorithms in catalog order (ring first, the
// default).
func AlgorithmNames() []string {
	out := make([]string, len(algorithms))
	for i, a := range algorithms {
		out[i] = a.Name
	}
	return out
}

// AlgorithmInfo is one catalog entry for the algorithm listing surfaces,
// mirroring core.SchemeInfo for schemes.
type AlgorithmInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// AlgorithmCatalog lists every algorithm with its description, in catalog
// order (ring first, the default).
func AlgorithmCatalog() []AlgorithmInfo {
	out := make([]AlgorithmInfo, len(algorithms))
	for i, a := range algorithms {
		out[i] = AlgorithmInfo{Name: a.Name, Description: a.Description}
	}
	return out
}

// CanonicalAlgorithm normalizes an algorithm selector: the empty string
// canonicalizes to DefaultAlgorithm, known names pass through, and unknown
// names error with the valid vocabulary.
func CanonicalAlgorithm(name string) (string, error) {
	a, err := AlgorithmByName(name)
	if err != nil {
		return "", err
	}
	return a.Name, nil
}

// AlgorithmByName resolves a selector to its implementation ("" means
// DefaultAlgorithm).
func AlgorithmByName(name string) (Algorithm, error) {
	if name == "" {
		name = DefaultAlgorithm
	}
	for _, a := range algorithms {
		if a.Name == name {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("collective: unknown algorithm %q (have %v)", name, AlgorithmNames())
}

// MustAlgorithm is AlgorithmByName for selectors already validated upstream
// (config validation rejects unknown names before any run or re-cost).
func MustAlgorithm(name string) Algorithm {
	a, err := AlgorithmByName(name)
	if err != nil {
		panic(err)
	}
	return a
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

// --- tree --------------------------------------------------------------------

// pow2Floor returns the largest power of two ≤ w (w ≥ 1).
func pow2Floor(w int) int {
	p := 1
	for p*2 <= w {
		p *= 2
	}
	return p
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

// --- hierarchical ------------------------------------------------------------

// Racks groups host ranks by attached switch, in first-appearance order;
// rank order is preserved inside each rack, and a host with no switch
// neighbor forms a singleton rack. The first member of each rack is its
// leader.
func Racks(topo *netsim.Topology, hosts []netsim.NodeID) [][]int {
	var order []netsim.NodeID
	byKey := map[netsim.NodeID][]int{}
	for rank, h := range hosts {
		key := h // singleton rack for switchless hosts
		if sw, ok := topo.AttachedSwitch(h); ok {
			key = sw
		}
		if _, seen := byKey[key]; !seen {
			order = append(order, key)
		}
		byKey[key] = append(byKey[key], rank)
	}
	racks := make([][]int, len(order))
	for i, key := range order {
		racks[i] = byKey[key]
	}
	return racks
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
