package collective

import (
	"math"
	"sync"

	"pactrain/internal/netsim"
)

// Pricer prices the collectives of one algorithm over one fabric and host
// list. Everything a price depends on besides the op — the rings' routes and
// whether they are uniform, the rack grouping, leaders and their rings, the
// tree's partner routes as directed hops, the broadcast and star routes — is
// a function of (algorithm, fabric, hosts) only, so a pricer resolves it
// once, on the first op that needs it, and every later op prices over it
// with no route walk and no allocation (DESIGN.md §4).
//
// Each price is the float arithmetic of the per-call cost models it
// replaced, in the same order (every step's duration is added to the clock
// one by one, t += step, and an op returns t − start), so re-costing stays
// bit-exact. Two things are still read per op: the fabric's link count
// (links added after NewFabric panic, as Fabric.Route errors) and its
// traces, which may be installed after the pricer is built.
//
// A pricer is safe for concurrent use: a run's ranks share one.
type Pricer struct {
	kind  algorithmKind
	f     *netsim.Fabric
	hosts []netsim.NodeID

	flat   lazy[ring]    // the ring over hosts
	bcast  lazy[bcast]   // binomial broadcast over hosts from rank 0
	star   lazy[star]    // every rank's route to rank 0 and back
	halve  lazy[*halver] // the tree all-reduce's fold, halving and unfold routes
	gather lazy[[][]hop] // the tree all-gather's binomial gather routes
	racks  lazy[*racked] // nil when the hosts sit in one rack

	// scratch holds the tree's per-op range and contention arrays.
	scratch sync.Pool
}

// NewPricer builds the pricer of alg over hosts on f. It resolves nothing
// until the first op.
func NewPricer(alg Algorithm, f *netsim.Fabric, hosts []netsim.NodeID) *Pricer {
	return &Pricer{kind: alg.kind, f: f, hosts: hosts}
}

// World returns the number of hosts the pricer prices over.
func (p *Pricer) World() int { return len(p.hosts) }

// lazy is one part of a pricer, resolved by the first op that needs it:
// ranks share the pricer, and an algorithm never pays for another's parts.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get resolves the part on first use; a disconnected pair panics, as
// pricing over it always has (config validation guarantees connected hosts).
func (l *lazy[T]) get(build func() (T, error)) T {
	l.once.Do(func() { l.v, l.err = build() })
	if l.err != nil {
		panic(l.err)
	}
	return l.v
}

// check is every op's stale-topology guard: routes resolved before links
// were added must not price.
func (p *Pricer) check() {
	if err := p.f.CheckTopology(); err != nil {
		panic(err)
	}
}

// AllReduce prices summing n elements across the hosts, launched at t.
func (p *Pricer) AllReduce(n int, wire WireFormat, t float64) float64 {
	if len(p.hosts) <= 1 || n == 0 {
		return 0
	}
	p.check()
	switch p.kind {
	case treeKind:
		return p.treeAllReduce(n, wire, t)
	case hierarchicalKind:
		if h := p.rackParts(); h != nil {
			return h.allReduce(p.f, n, wire, t)
		}
	}
	return p.ring().allReduce(p.f, n, wire, t)
}

// AllGather prices exchanging per-host payloads of sizes[i] elements so
// every host holds all of them.
func (p *Pricer) AllGather(sizes []int, wire WireFormat, t float64) float64 {
	if len(p.hosts) <= 1 {
		return 0
	}
	p.check()
	switch p.kind {
	case treeKind:
		return p.treeAllGather(sizes, wire, t)
	case hierarchicalKind:
		if h := p.rackParts(); h != nil {
			return h.allGather(p.f, sizes, wire, t)
		}
	}
	return p.ring().walk(p.f, func(c int) float64 { return wire.MessageBytes(sizes[c]) }, len(p.hosts)-1, t) - t
}

// Broadcast prices distributing msgBytes from hosts[root] to every host.
// Only root 0 — the root of every recorded op — keeps its routes; another
// root resolves its tree per call.
func (p *Pricer) Broadcast(root int, msgBytes float64, t float64) float64 {
	if len(p.hosts) <= 1 || msgBytes <= 0 {
		return 0
	}
	p.check()
	if p.kind == hierarchicalKind {
		if h := p.rackParts(); h != nil {
			return h.broadcast(p.f, root, msgBytes, t)
		}
	}
	if root == 0 {
		return p.rootBcast().cost(p.f, msgBytes, t)
	}
	b, err := newBcast(p.f, p.hosts, root)
	if err != nil {
		panic(err)
	}
	return b.cost(p.f, msgBytes, t)
}

// PS prices a parameter-server round trip for n elements: serialized ingress
// from every worker to the server (hosts[0]), then serialized egress back.
// The serialization models the incast on the server's edge link.
func (p *Pricer) PS(n int, wire WireFormat, t float64) float64 {
	if len(p.hosts) <= 1 || n == 0 {
		return 0
	}
	p.check()
	s := p.starRoutes()
	start := t
	msg := wire.MessageBytes(n)
	for _, r := range s.up {
		t += p.f.Send(r, msg, t)
	}
	for _, r := range s.down {
		t += p.f.Send(r, msg, t)
	}
	return t - start
}

// BlockSparse prices an OmniReduce-style streaming aggregation: serialized
// ingress of each worker's non-zero blocks into the aggregator (hosts[0]),
// then the union of non-zero result blocks fanned back out to every worker.
// byteScale <= 0 means 1.
func (p *Pricer) BlockSparse(perWorkerBlocks []int, unionBlocks, blockSize int, byteScale, t float64) float64 {
	if len(p.hosts) <= 1 {
		return 0
	}
	if byteScale <= 0 {
		byteScale = 1
	}
	p.check()
	s := p.starRoutes()
	start := t
	for i, r := range s.up {
		t += p.f.Send(r, BlockBytes(perWorkerBlocks[i+1], blockSize, byteScale), t)
	}
	out := BlockBytes(unionBlocks, blockSize, byteScale)
	for _, r := range s.down {
		t += p.f.Send(r, out, t)
	}
	return t - start
}

func (p *Pricer) ring() ring {
	return p.flat.get(func() (ring, error) { return newRing(p.f, p.hosts) })
}

func (p *Pricer) rootBcast() bcast {
	return p.bcast.get(func() (bcast, error) { return newBcast(p.f, p.hosts, 0) })
}

func (p *Pricer) starRoutes() star {
	return p.star.get(func() (star, error) { return newStar(p.f, p.hosts) })
}

func (p *Pricer) rackParts() *racked {
	return p.racks.get(func() (*racked, error) { return newRacked(p.f, p.hosts) })
}

// --- ring --------------------------------------------------------------------

// ring is a ring over hosts: route i runs from host i to host i+1 (mod
// world). uniform records that every route has one latency and bottleneck.
type ring struct {
	routes  []netsim.Route
	uniform bool
}

func newRing(f *netsim.Fabric, hosts []netsim.NodeID) (ring, error) {
	world := len(hosts)
	r := ring{routes: make([]netsim.Route, world), uniform: true}
	for i := range r.routes {
		route, err := f.Route(hosts[i], hosts[(i+1)%world])
		if err != nil {
			return ring{}, err
		}
		r.routes[i] = route
		r.uniform = r.uniform && route.LatencySec == r.routes[0].LatencySec &&
			route.BottleneckBps == r.routes[0].BottleneckBps
	}
	return r, nil
}

// walk prices consecutive ring steps starting at time t and returns the time
// the last one ends. msg(c) is the bytes of chunk c. In step s every host i
// sends chunk (i-s) mod world to host i+1 concurrently — a unidirectional
// ring puts at most one of a step's transfers on each directed link, so the
// step costs its slowest transfer. Every step sends each chunk once, so when
// the fabric has no traces and the ring is uniform, every step costs the
// largest chunk's transfer (a transfer's cost is monotone in its bytes) and
// the walk is that step added steps times, in order. On a fabric without
// traces whose ring is not uniform, step s costs the same as step s mod
// world (route i sends chunk (i-s) mod world either way), so the walk
// prices the first min(steps, world) steps and replays their costs for the
// rest, in the same order. The costs live on the caller's stack, since the
// ranks share the pricer; a ring of more than len(rotation) hosts prices
// every step.
func (r ring) walk(f *netsim.Fabric, msg func(c int) float64, steps int, t float64) float64 {
	world := len(r.routes)
	invariant := f.TimeInvariant()
	if r.uniform && invariant {
		largest := math.Inf(-1) // the strict > skips NaN chunks, as the loop below does
		for c := range world {
			if m := msg(c); m > largest {
				largest = m
			}
		}
		var step float64
		if dt := f.Send(r.routes[0], largest, t); dt > step {
			step = dt
		}
		for range steps {
			t += step
		}
		return t
	}
	var rotation [32]float64
	reuse := invariant && world <= len(rotation)
	for s := 0; s < steps; s++ {
		if reuse && s >= world {
			t += rotation[s%world]
			continue
		}
		var step float64
		c := (world - s%world) % world
		for _, route := range r.routes {
			if dt := f.Send(route, msg(c), t); dt > step {
				step = dt
			}
			if c++; c == world {
				c = 0
			}
		}
		if reuse {
			rotation[s] = step
		}
		t += step
	}
	return t
}

// allReduce prices a ring all-reduce of n elements: world-1 reduce-scatter
// steps in which host i sends chunk i-s, then world-1 all-gather steps in
// which it sends chunk i+1-s' — with s = world-1+s' the same chunk i-s, so
// the 2(world-1) steps are one rotation over the chunk sizes.
func (r ring) allReduce(f *netsim.Fabric, n int, wire WireFormat, t float64) float64 {
	world := len(r.routes)
	c := newSplit(n, world, wire)
	return r.walk(f, c.bytes, 2*(world-1), t) - t
}

// split describes the world chunks a ring splits n elements into: the first
// rem chunks carry base+1 elements, the rest base.
type split struct {
	base, rem  int
	big, small float64 // the two chunk sizes' wire bytes
}

func newSplit(n, world int, wire WireFormat) split {
	base := n / world
	return split{base: base, rem: n % world, big: wire.MessageBytes(base + 1), small: wire.MessageBytes(base)}
}

// bytes returns chunk c's wire bytes.
func (s split) bytes(c int) float64 {
	if c < s.rem {
		return s.big
	}
	return s.small
}

// empty reports whether chunk c carries no element.
func (s split) empty(c int) bool { return s.base == 0 && c >= s.rem }

// --- broadcast and star --------------------------------------------------

// bcast is a binomial-tree broadcast over world hosts from one root: in the
// round of span 2^k the first min(span, world-span) ranks counted from the
// root send to the rank span further on, cyclically; routes holds every
// round's routes in that order.
type bcast struct {
	world  int
	routes []netsim.Route
}

func newBcast(f *netsim.Fabric, hosts []netsim.NodeID, root int) (bcast, error) {
	world := len(hosts)
	b := bcast{world: world, routes: make([]netsim.Route, 0, max(world-1, 0))}
	for span := 1; span < world; span *= 2 {
		for rel := 0; rel < span && rel+span < world; rel++ {
			r, err := f.Route(hosts[(root+rel)%world], hosts[(root+rel+span)%world])
			if err != nil {
				return bcast{}, err
			}
			b.routes = append(b.routes, r)
		}
	}
	return b, nil
}

// cost returns the broadcast's duration when launched at t.
func (b bcast) cost(f *netsim.Fabric, msgBytes, t float64) float64 {
	if b.world <= 1 || msgBytes <= 0 {
		return 0
	}
	start := t
	routes := b.routes
	for span := 1; span < b.world; span *= 2 {
		var step float64
		k := min(span, b.world-span)
		for _, r := range routes[:k] {
			if dt := f.Send(r, msgBytes, t); dt > step {
				step = dt
			}
		}
		routes = routes[k:]
		t += step
	}
	return t - start
}

// star holds the routes of an incast onto hosts[0]: up[i-1] from host i to
// host 0, down[i-1] back.
type star struct {
	up, down []netsim.Route
}

func newStar(f *netsim.Fabric, hosts []netsim.NodeID) (star, error) {
	s := star{up: make([]netsim.Route, len(hosts)-1), down: make([]netsim.Route, len(hosts)-1)}
	for i := range s.up {
		var err error
		if s.up[i], err = f.Route(hosts[i+1], hosts[0]); err != nil {
			return star{}, err
		}
		if s.down[i], err = f.Route(hosts[0], hosts[i+1]); err != nil {
			return star{}, err
		}
	}
	return s, nil
}

// --- tree --------------------------------------------------------------------

// hop is one transfer of a contended step: its route, and the route's links
// as directed hops (2·li, +1 when traversed B→A) for the contention count.
type hop struct {
	netsim.Route
	dirs []int32
}

func newHop(f *netsim.Fabric, src, dst netsim.NodeID) (hop, error) {
	r, err := f.Route(src, dst)
	if err != nil {
		return hop{}, err
	}
	h := hop{Route: r, dirs: make([]int32, len(r.Links))}
	cur := src
	for k, li := range r.Links {
		d := 2 * li
		if l := &f.Topo.Links[li]; l.A == cur {
			cur = l.B
		} else {
			d, cur = d+1, l.A
		}
		h.dirs[k] = int32(d)
	}
	return h, nil
}

// contended costs a step of simultaneous transfers starting at time t, xs[i]
// carrying bytes[i] (none when bytes[i] <= 0), charging directed-link
// contention: a link direction carrying k of the step's transfers serves
// each at 1/k of its bandwidth. The flat ring never needs this (a
// unidirectional ring puts at most one same-step transfer on each directed
// link, so its max-of-transfers is already exact), but the tree pattern
// routinely stacks several pair exchanges onto one inter-switch link, where
// uncontended pricing would be fiction. load is zero on entry and on return.
func contended(f *netsim.Fabric, xs []hop, bytes []float64, load []int32, t float64) float64 {
	for i := range xs {
		if bytes[i] <= 0 {
			continue
		}
		for _, d := range xs[i].dirs {
			load[d]++
		}
	}
	var step float64
	for i := range xs {
		x := &xs[i]
		if bytes[i] <= 0 || len(x.dirs) == 0 {
			continue
		}
		bottleneck := math.Inf(1)
		for _, d := range x.dirs {
			if bw := f.LinkBandwidthAt(int(d/2), t) / float64(load[d]); bw < bottleneck {
				bottleneck = bw
			}
		}
		if dt := x.LatencySec + bytes[i]*8/bottleneck; dt > step {
			step = dt
		}
	}
	for i := range xs {
		if bytes[i] <= 0 {
			continue
		}
		for _, d := range xs[i].dirs {
			load[d] = 0
		}
	}
	return step
}

// pow2Floor returns the largest power of two ≤ w (w ≥ 1).
func pow2Floor(w int) int {
	p := 1
	for p*2 <= w {
		p *= 2
	}
	return p
}

// halver holds the routes of a recursive halving/doubling all-reduce over
// pow = pow2Floor(world) ranks: fold[i] carries rank pow+i's vector to rank
// i, unfold[i] returns the result, and rounds[s][i] is rank i's route to its
// partner i ^ (pow >> (s+1)) in halving round s and doubling round s alike.
type halver struct {
	pow          int
	fold, unfold []hop
	rounds       [][]hop
}

func newHalver(f *netsim.Fabric, hosts []netsim.NodeID) (*halver, error) {
	pow := pow2Floor(len(hosts))
	h := &halver{pow: pow}
	var err error
	for i := 0; pow+i < len(hosts) && err == nil; i++ {
		var in, out hop
		if in, err = newHop(f, hosts[pow+i], hosts[i]); err == nil {
			out, err = newHop(f, hosts[i], hosts[pow+i])
		}
		h.fold, h.unfold = append(h.fold, in), append(h.unfold, out)
	}
	for span := pow / 2; span >= 1 && err == nil; span /= 2 {
		round := make([]hop, pow)
		for i := range round {
			if round[i], err = newHop(f, hosts[i], hosts[i^span]); err != nil {
				break
			}
		}
		h.rounds = append(h.rounds, round)
	}
	return h, err
}

// newGather resolves the binomial gather onto rank 0: in the round of span
// 2^s, rank i = span, 3·span, ... ships its accumulated block to i-span.
func newGather(f *netsim.Fabric, hosts []netsim.NodeID) ([][]hop, error) {
	var rounds [][]hop
	for span := 1; span < len(hosts); span *= 2 {
		var round []hop
		for i := span; i < len(hosts); i += 2 * span {
			x, err := newHop(f, hosts[i], hosts[i-span])
			if err != nil {
				return nil, err
			}
			round = append(round, x)
		}
		rounds = append(rounds, round)
	}
	return rounds, nil
}

// treeScratch is one tree op's working state, pooled per pricer: the ranks'
// element ranges (lo, hi and the next round's), each transfer's bytes, and
// the directed-link loads.
type treeScratch struct {
	lo, hi, nlo, nhi []int
	bytes            []float64
	load             []int32
}

func (p *Pricer) getScratch() *treeScratch {
	if s, ok := p.scratch.Get().(*treeScratch); ok {
		return s
	}
	w := len(p.hosts)
	return &treeScratch{lo: make([]int, w), hi: make([]int, w), nlo: make([]int, w), nhi: make([]int, w),
		bytes: make([]float64, w), load: make([]int32, 2*len(p.f.Topo.Links))}
}

// treeAllReduce prices a recursive halving/doubling all-reduce of n
// elements. Non-power-of-two worlds fold the trailing ranks onto partners
// before the exchange and unfold them after, as MPI implementations do.
// Steps are priced contention-aware (contended): unlike the ring, the
// tree's pair exchanges stack several same-direction transfers onto shared
// inter-switch links, which is exactly where the pattern loses to
// topology-aware alternatives.
func (p *Pricer) treeAllReduce(n int, wire WireFormat, t float64) float64 {
	h := p.halve.get(func() (*halver, error) { return newHalver(p.f, p.hosts) })
	s := p.getScratch()
	defer p.scratch.Put(s)
	start := t
	pow := h.pow
	full := wire.MessageBytes(n)

	// Fold: rank pow+i contributes its full vector to rank i.
	if len(h.fold) > 0 {
		for i := range h.fold {
			s.bytes[i] = full
		}
		t += contended(p.f, h.fold, s.bytes, s.load, t)
	}

	// Recursive halving (reduce-scatter): each rank keeps half its active
	// range and ships the other half to its partner. Ranges are tracked
	// exactly so uneven element counts stay monotone and deterministic.
	lo, hi, nlo, nhi := s.lo[:pow], s.hi[:pow], s.nlo[:pow], s.nhi[:pow]
	for i := range lo {
		lo[i], hi[i] = 0, n
	}
	for r, round := range h.rounds {
		span := pow >> (r + 1)
		for i := range pow {
			mid := lo[i] + (hi[i]-lo[i])/2
			var send int
			if i < i^span {
				// Keep the lower half, send the upper.
				send = hi[i] - mid
				nlo[i], nhi[i] = lo[i], mid
			} else {
				send = mid - lo[i]
				nlo[i], nhi[i] = mid, hi[i]
			}
			s.bytes[i] = sendBytes(send, wire)
		}
		lo, hi, nlo, nhi = nlo, nhi, lo, hi
		t += contended(p.f, round, s.bytes, s.load, t)
	}

	// Recursive doubling (all-gather): mirror the halving — each rank sends
	// its whole owned range, doubling it every round.
	for r := len(h.rounds) - 1; r >= 0; r-- {
		span := pow >> (r + 1)
		for i := range pow {
			s.bytes[i] = sendBytes(hi[i]-lo[i], wire)
		}
		for i := range pow {
			nlo[i] = min(lo[i], lo[i^span])
			nhi[i] = max(hi[i], hi[i^span])
		}
		lo, hi, nlo, nhi = nlo, nhi, lo, hi
		t += contended(p.f, h.rounds[r], s.bytes, s.load, t)
	}

	// Unfold: rank i returns the full result to rank pow+i.
	if len(h.unfold) > 0 {
		for i := range h.unfold {
			s.bytes[i] = full
		}
		t += contended(p.f, h.unfold, s.bytes, s.load, t)
	}
	return t - start
}

// sendBytes is the wire size of a tree transfer of k elements; a rank with
// nothing to send sends no message at all.
func sendBytes(k int, wire WireFormat) float64 {
	if k <= 0 {
		return 0
	}
	return wire.MessageBytes(k)
}

// treeAllGather prices a binomial gather of every host's payload onto
// hosts[0] followed by a binomial broadcast of the concatenation. sizes[i]
// is host i's element count.
func (p *Pricer) treeAllGather(sizes []int, wire WireFormat, t float64) float64 {
	rounds := p.gather.get(func() ([][]hop, error) { return newGather(p.f, p.hosts) })
	s := p.getScratch()
	defer p.scratch.Put(s)
	start := t
	world := len(p.hosts)
	// acc[i] is the element total host i has accumulated so far.
	acc := s.lo[:world]
	clear(acc)
	copy(acc, sizes)
	for r, round := range rounds {
		span := 1 << r
		for k, i := 0, span; i < world; k, i = k+1, i+2*span {
			// Host i ships its accumulated block to i-span.
			s.bytes[k] = sendBytes(acc[i], wire)
			acc[i-span] += acc[i]
			acc[i] = 0
		}
		t += contended(p.f, round, s.bytes, s.load, t)
	}
	var total int
	for _, n := range sizes {
		total += n
	}
	t += p.rootBcast().cost(p.f, wire.MessageBytes(total), t)
	return t - start
}

// --- hierarchical ------------------------------------------------------------

// racked holds the hierarchical pattern's parts: the racks (Racks), each
// rack's ring and broadcast from its leader, every rank's route to its
// leader, and the leaders' ring and broadcast from rack 0's leader.
type racked struct {
	racks    [][]int
	rackOf   []int          // rank → rack index
	toLeader []netsim.Route // rank → its leader (the zero Route for a leader)
	rings    []ring         // per rack; zero for a singleton rack
	fanOut   []bcast        // per rack
	leaders  []netsim.NodeID
	top      ring
	topBcast bcast
}

// newRacked resolves the hierarchical parts, or returns nil when the hosts
// sit in one rack: there the pattern is the flat ring.
func newRacked(f *netsim.Fabric, hosts []netsim.NodeID) (*racked, error) {
	racks := Racks(f.Topo, hosts)
	if len(racks) <= 1 {
		return nil, nil
	}
	h := &racked{racks: racks, rackOf: make([]int, len(hosts)), toLeader: make([]netsim.Route, len(hosts)),
		rings: make([]ring, len(racks)), fanOut: make([]bcast, len(racks)), leaders: make([]netsim.NodeID, len(racks))}
	var err error
	for c, rack := range racks {
		rh := make([]netsim.NodeID, len(rack))
		for i, r := range rack {
			rh[i], h.rackOf[r] = hosts[r], c
			if i > 0 {
				if h.toLeader[r], err = f.Route(rh[i], rh[0]); err != nil {
					return nil, err
				}
			}
		}
		h.leaders[c] = rh[0]
		if len(rack) > 1 {
			if h.rings[c], err = newRing(f, rh); err != nil {
				return nil, err
			}
		}
		if h.fanOut[c], err = newBcast(f, rh, 0); err != nil {
			return nil, err
		}
	}
	if h.top, err = newRing(f, h.leaders); err != nil {
		return nil, err
	}
	h.topBcast, err = newBcast(f, h.leaders, 0)
	return h, err
}

// fanOutCost prices the closing phase of every hierarchical primitive: each
// leader broadcasts msgBytes inside its rack, starting at t. The racks' edge
// links are disjoint, so they proceed concurrently and the phase costs the
// slowest rack.
func (h *racked) fanOutCost(f *netsim.Fabric, msgBytes, t float64) float64 {
	var phase float64
	for c := range h.fanOut {
		if dt := h.fanOut[c].cost(f, msgBytes, t); dt > phase {
			phase = dt
		}
	}
	return phase
}

// allReduce prices the two-level all-reduce of n elements:
//
//  1. intra-rack ring reduce-scatter, then the scattered chunks converge on
//     the rack leader (serialized on the leader's edge link — the same
//     incast model as the PS baseline, but confined to one fast rack);
//  2. inter-rack ring all-reduce of the rack sums across the leaders — the
//     only phase that crosses the bottleneck inter-switch links;
//  3. intra-rack binomial broadcast of the global sum from each leader.
//
// Racks proceed concurrently within phases 1 and 3 (their edge links are
// disjoint), so each phase costs the maximum over racks.
func (h *racked) allReduce(f *netsim.Fabric, n int, wire WireFormat, t float64) float64 {
	start := t

	// Phase 1: per-rack reduce-scatter + chunk gather onto the leader.
	var phase float64
	for c, rack := range h.racks {
		m := len(rack)
		if m <= 1 {
			continue
		}
		chunks := newSplit(n, m, wire)
		rt := h.rings[c].walk(f, chunks.bytes, m-1, t)
		// Gather the scattered rack-sum chunks to the leader; ingress shares
		// the leader's edge link, so the transfers serialize.
		for i := 1; i < m; i++ {
			if !chunks.empty(i) {
				rt += f.Send(h.toLeader[rack[i]], chunks.bytes(i), rt)
			}
		}
		if rt-t > phase {
			phase = rt - t
		}
	}
	t += phase

	// Phase 2: ring all-reduce of the full rack sums across leaders.
	t += h.top.allReduce(f, n, wire, t)

	// Phase 3: leaders broadcast the global sum inside their racks.
	t += h.fanOutCost(f, wire.MessageBytes(n), t)
	return t - start
}

// allGather prices the two-level all-gather: per-rack payloads converge on
// the leader (serialized edge-link ingress), leaders ring-all-gather their
// rack aggregates across the bottleneck, and each leader broadcasts the
// full concatenation inside its rack.
func (h *racked) allGather(f *netsim.Fabric, sizes []int, wire WireFormat, t float64) float64 {
	start := t

	// Phase 1: gather member payloads onto each rack leader.
	var phase float64
	for _, rack := range h.racks {
		rt := t
		for _, r := range rack[1:] {
			if sizes[r] > 0 {
				rt += f.Send(h.toLeader[r], wire.MessageBytes(sizes[r]), rt)
			}
		}
		if rt-t > phase {
			phase = rt - t
		}
	}
	t += phase

	// Phase 2: leaders exchange rack aggregates in a ring.
	rackBytes := func(c int) float64 {
		var total int
		for _, r := range h.racks[c] {
			total += sizes[r]
		}
		return wire.MessageBytes(total)
	}
	t += h.top.walk(f, rackBytes, len(h.racks)-1, t) - t

	// Phase 3: broadcast the concatenation of everything inside each rack.
	var grand int
	for _, n := range sizes {
		grand += n
	}
	t += h.fanOutCost(f, wire.MessageBytes(grand), t)
	return t - start
}

// broadcast prices the two-level broadcast: the root hands the message to
// its rack leader if it is not one, the leaders run a binomial broadcast
// among themselves (one bottleneck crossing per rack), and each leader fans
// out inside its rack concurrently. A root outside rack 0 resolves the
// leaders' tree per call.
func (h *racked) broadcast(f *netsim.Fabric, root int, msgBytes, t float64) float64 {
	start := t
	rootRack := h.rackOf[root]
	if h.racks[rootRack][0] != root {
		t += f.Send(h.toLeader[root], msgBytes, t)
	}
	top := h.topBcast
	if rootRack != 0 {
		var err error
		if top, err = newBcast(f, h.leaders, rootRack); err != nil {
			panic(err)
		}
	}
	t += top.cost(f, msgBytes, t)
	t += h.fanOutCost(f, msgBytes, t)
	return t - start
}
