// Package netsim models the evaluation network of the PacTrain paper: an
// alpha-beta (latency + bandwidth) fabric with an explicit topology of hosts
// and switches, bottleneck inter-switch links, and optional time-varying
// bandwidth. The collective-communication layer quotes every transfer
// through this fabric, so time-to-accuracy under 100 Mbps / 500 Mbps /
// 1 Gbps constraints can be reproduced without physical hardware.
//
// All times are in seconds and all rates in bits per second, matching the
// units the paper reports.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Common bandwidth constants in bits per second.
const (
	Mbps = 1e6
	Gbps = 1e9
)

// ParseBandwidth reads a link speed written as a number and a unit, "100mbps"
// or "1 Gbps", into bits per second. It is the one decoder of a bandwidth
// that arrives from outside the program, so it rejects what the topology
// constructors would either panic on or silently replace with a default:
// anything but a finite, positive speed, and any text around the number.
func ParseBandwidth(s string) (float64, error) {
	unit := Gbps
	num, ok := strings.CutSuffix(strings.ToLower(strings.TrimSpace(s)), "gbps")
	if !ok {
		unit = Mbps
		num, ok = strings.CutSuffix(num, "mbps")
	}
	if !ok {
		return 0, fmt.Errorf("bandwidth %q must end in mbps or gbps", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil {
		return 0, fmt.Errorf("bandwidth %q: %w", s, err)
	}
	if bps := v * unit; bps > 0 && !math.IsInf(bps, 0) {
		return bps, nil
	}
	return 0, fmt.Errorf("bandwidth %q must be positive and finite", s)
}

// FormatBandwidth pretty-prints a link speed; ParseBandwidth reads it back.
func FormatBandwidth(bps float64) string {
	if bps >= Gbps {
		return fmt.Sprintf("%g Gbps", bps/Gbps)
	}
	return fmt.Sprintf("%g Mbps", bps/Mbps)
}

// NodeID identifies a node (host or switch) in a topology.
type NodeID int

// NodeKind distinguishes traffic endpoints from forwarding elements.
type NodeKind int

// Node kinds.
const (
	Host NodeKind = iota
	Switch
)

// Node is a vertex in the fabric graph.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// Link is a full-duplex edge with a nominal bandwidth and one-way latency.
type Link struct {
	A, B         NodeID
	BandwidthBps float64
	LatencySec   float64
}

// Topology is an undirected graph of nodes and links.
type Topology struct {
	Nodes []Node
	Links []Link

	adj [][]int // node → indices into Links, in insertion order

	// tree is the rooted index Path walks when the graph is a tree (nil
	// slice when it is not), built on first use and dropped by
	// AddNode/AddLink. Building is idempotent, so the fabrics sharing one
	// topology (engine jobs reusing a config's topology) may race to publish
	// it.
	tree atomic.Pointer[[]treeNode]
}

// treeNode is a node's place in a tree-shaped topology rooted at node 0.
type treeNode struct {
	parent int32 // -1 at the root
	uplink int32 // index into Links of the edge to parent
	depth  int32
}

// NewTopology builds an empty topology.
func NewTopology() *Topology { return &Topology{} }

// AddNode appends a node and returns its ID.
func (t *Topology) AddNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Name: name, Kind: kind})
	t.adj = append(t.adj, nil)
	t.tree.Store(nil)
	return id
}

// AddLink connects two nodes with the given bandwidth and latency. It panics
// on unknown nodes or non-positive bandwidth. Topologies are built
// single-threaded, before any fabric is created over them: a Fabric notes
// the link count at NewFabric and refuses to route once the link set has
// changed underneath it.
func (t *Topology) AddLink(a, b NodeID, bandwidthBps, latencySec float64) int {
	if !t.has(a) || !t.has(b) || a == b {
		panic(fmt.Sprintf("netsim: invalid link %d-%d", a, b))
	}
	if bandwidthBps <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	idx := len(t.Links)
	t.Links = append(t.Links, Link{A: a, B: b, BandwidthBps: bandwidthBps, LatencySec: latencySec})
	t.adj[a] = append(t.adj[a], idx)
	t.adj[b] = append(t.adj[b], idx)
	t.tree.Store(nil)
	return idx
}

func (t *Topology) has(n NodeID) bool { return n >= 0 && int(n) < len(t.Nodes) }

// Hosts returns the IDs of all host nodes in insertion order.
func (t *Topology) Hosts() []NodeID {
	var hs []NodeID
	for _, n := range t.Nodes {
		if n.Kind == Host {
			hs = append(hs, n.ID)
		}
	}
	return hs
}

// other returns the endpoint of link li that is not n.
func (t *Topology) other(li int, n NodeID) NodeID {
	l := &t.Links[li]
	if l.A == n {
		return l.B
	}
	return l.A
}

// index returns the rooted index, building it if AddNode/AddLink dropped it,
// or nil when the graph is not a tree: a graph is one exactly when it has one
// link fewer than nodes and every node is reachable from node 0 — which
// every preset is.
func (t *Topology) index() []treeNode {
	if ix := t.tree.Load(); ix != nil {
		return *ix
	}
	var nodes []treeNode
	if n := len(t.Nodes); n > 0 && len(t.Links) == n-1 {
		nodes = make([]treeNode, n)
		for i := range nodes {
			nodes[i].parent = -2 // unvisited
		}
		nodes[0].parent = -1
		queue := make([]NodeID, 1, n) // the root, node 0
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, li := range t.adj[cur] {
				if next := t.other(li, cur); nodes[next].parent == -2 {
					nodes[next] = treeNode{parent: int32(cur), uplink: int32(li), depth: nodes[cur].depth + 1}
					queue = append(queue, next)
				}
			}
		}
		if len(queue) < n {
			nodes = nil
		}
	}
	t.tree.Store(&nodes)
	return nodes
}

// Path returns the minimum-hop link-index path from src to dst in src→dst
// order, or nil if unreachable (or either node is unknown). On a tree it is
// the walk through the common ancestor; any other graph is searched
// breadth-first, neighbors in link insertion order.
func (t *Topology) Path(src, dst NodeID) []int {
	path, ok := t.appendPath([]int{}, src, dst)
	if !ok {
		return nil
	}
	return path
}

// appendPath appends Path(src, dst) to buf; ok is false when there is none.
func (t *Topology) appendPath(buf []int, src, dst NodeID) (path []int, ok bool) {
	if !t.has(src) || !t.has(dst) {
		return nil, false
	}
	if src == dst {
		return buf, true
	}
	nodes := t.index()
	if nodes == nil {
		bfs := t.pathBFS(src, dst)
		return append(buf, bfs...), bfs != nil
	}
	// Find the common ancestor, then fill the path from both ends.
	a, b := int32(src), int32(dst)
	for nodes[a].depth > nodes[b].depth {
		a = nodes[a].parent
	}
	for nodes[b].depth > nodes[a].depth {
		b = nodes[b].parent
	}
	for a != b {
		a, b = nodes[a].parent, nodes[b].parent
	}
	start := len(buf)
	end := start + int(nodes[src].depth+nodes[dst].depth-2*nodes[a].depth)
	path = slices.Grow(buf, end-start)[:end]
	for i, n := start, int32(src); n != a; i, n = i+1, nodes[n].parent {
		path[i] = int(nodes[n].uplink)
	}
	for i, n := end-1, int32(dst); n != a; i, n = i-1, nodes[n].parent {
		path[i] = int(nodes[n].uplink)
	}
	return path, true
}

// pathBFS is the breadth-first search behind Path on graphs with cycles or
// several components, and the reference the tree walk is tested against.
func (t *Topology) pathBFS(src, dst NodeID) []int {
	via := make([]int, len(t.Nodes)) // node → link used to reach it, +1; 0 = unvisited
	queue := []NodeID{src}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, li := range t.adj[cur] {
			next := t.other(li, cur)
			if next == src || via[next] != 0 {
				continue
			}
			via[next] = li + 1
			if next == dst {
				var path []int
				for n := dst; n != src; n = t.other(via[n]-1, n) {
					path = append(path, via[n]-1)
				}
				slices.Reverse(path)
				return path
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// BandwidthTrace scales a link's bandwidth over time, modelling the
// "variable-constrained network bandwidth" scenario in the paper. Segments
// apply in order; the last segment extends to infinity.
type BandwidthTrace struct {
	LinkIndex int
	Segments  []TraceSegment
}

// TraceSegment holds a bandwidth multiplier active until the given time.
type TraceSegment struct {
	UntilSec float64
	Scale    float64
}

// scaleAt returns the multiplier active at time t.
func (b *BandwidthTrace) scaleAt(t float64) float64 {
	for _, s := range b.Segments {
		if t < s.UntilSec {
			return s.Scale
		}
	}
	if n := len(b.Segments); n > 0 {
		return b.Segments[n-1].Scale
	}
	return 1
}

// Fabric couples a topology with bandwidth traces. It is a pricing
// instrument only: quoting a transfer writes nothing, so any number of
// callers may quote on one fabric at once, once its traces are installed.
type Fabric struct {
	Topo *Topology

	// traces holds each link's trace, nil where none is installed; the
	// slice itself is nil until the first SetTrace, out-of-range ones
	// included, and non-nil (even for no links) after it.
	traces []*BandwidthTrace
	links  int // len(Topo.Links) at NewFabric
}

// NewFabric wraps a topology.
func NewFabric(t *Topology) *Fabric {
	return &Fabric{Topo: t, links: len(t.Links)}
}

// SetTrace installs a bandwidth trace on a link. A trace on a link index
// the fabric was not built over scales no link, but the fabric still stops
// being time-invariant.
func (f *Fabric) SetTrace(tr *BandwidthTrace) {
	if f.traces == nil {
		f.traces = make([]*BandwidthTrace, f.links)
	}
	if li := tr.LinkIndex; li >= 0 && li < f.links {
		f.traces[li] = tr
	}
}

// TimeInvariant reports whether link bandwidths are independent of the
// simulated clock — true exactly when no bandwidth trace is installed. On a
// time-invariant fabric a collective's cost depends only on the payload and
// algorithm, never on when it launches, which licenses the re-costing
// layer's per-op-signature memoization (internal/harness).
func (f *Fabric) TimeInvariant() bool { return f.traces == nil }

// LinkBandwidthAt returns the effective (trace-scaled) bandwidth of link li
// at time t — the per-link view contention-aware collective costers need.
func (f *Fabric) LinkBandwidthAt(li int, t float64) float64 {
	bw := f.Topo.Links[li].BandwidthBps
	if li < len(f.traces) {
		if tr := f.traces[li]; tr != nil {
			bw *= tr.scaleAt(t)
		}
	}
	return bw
}

// Route is a resolved src→dst path: what a collective pricer keeps per pair
// so the graph is walked once per pricer rather than once per op. The zero Route
// (no links) is a node's route to itself.
type Route struct {
	// Links are the traversed link indices in src→dst order.
	Links []int
	// LatencySec is the links' one-way latencies summed in that order.
	LatencySec float64
	// BottleneckBps is the links' minimum nominal bandwidth (+Inf for a
	// node's route to itself): the rate a transfer sees on a fabric without
	// traces.
	BottleneckBps float64
}

// CheckTopology returns the error Route returns once links were added to
// the topology after NewFabric, and nil before: a caller that holds routes
// across calls (collective.Pricer) repeats it on every use.
func (f *Fabric) CheckTopology() error {
	if f.links != len(f.Topo.Links) {
		return fmt.Errorf("netsim: topology changed after NewFabric (%d links, fabric built over %d)",
			len(f.Topo.Links), f.links)
	}
	return nil
}

// Route resolves the path from src to dst. It returns an error when the
// nodes are disconnected, or when links were added to the topology after
// NewFabric.
func (f *Fabric) Route(src, dst NodeID) (Route, error) {
	return f.route(nil, src, dst)
}

// route is Route with the links appended to buf, so a caller that prices one
// transfer and drops the route can keep it on its stack.
func (f *Fabric) route(buf []int, src, dst NodeID) (Route, error) {
	if err := f.CheckTopology(); err != nil {
		return Route{}, err
	}
	path, ok := f.Topo.appendPath(buf, src, dst)
	if !ok {
		return Route{}, fmt.Errorf("netsim: no path from %d to %d", src, dst)
	}
	r := Route{Links: path, BottleneckBps: math.Inf(1)}
	for _, li := range path {
		l := &f.Topo.Links[li]
		r.LatencySec += l.LatencySec
		if l.BandwidthBps < r.BottleneckBps {
			r.BottleneckBps = l.BandwidthBps
		}
	}
	return r, nil
}

// Send returns the time to move payloadBytes along a route resolved on this
// fabric, starting at time t. Each link's bandwidth is read at t, so traces
// apply per transfer; without traces the route's bottleneck is the rate.
func (f *Fabric) Send(r Route, payloadBytes float64, t float64) float64 {
	if len(r.Links) == 0 {
		return 0
	}
	bottleneck := r.BottleneckBps
	if f.traces != nil {
		bottleneck = math.Inf(1)
		for _, li := range r.Links {
			if bw := f.LinkBandwidthAt(li, t); bw < bottleneck {
				bottleneck = bw
			}
		}
	}
	return r.LatencySec + payloadBytes*8/bottleneck
}

// TransferTime returns the time to move payloadBytes from src to dst
// starting at time t.
func (f *Fabric) TransferTime(src, dst NodeID, payloadBytes float64, t float64) (float64, error) {
	var buf [8]int // longer paths spill to the heap
	r, err := f.route(buf[:0], src, dst)
	if err != nil {
		return 0, err
	}
	return f.Send(r, payloadBytes, t), nil
}

// --- Straggler presets ------------------------------------------------------
//
// The cluster scenarios the paper's related work targets (hierarchical and
// heterogeneous deployments) rarely have uniform workers. These presets
// return per-rank compute-time multipliers for ddp.RankCompute.Multipliers;
// netsim hosts them next to the topology presets so an experiment picks its
// fabric and its straggler profile from one vocabulary.

// OneSlowRank returns multipliers for a world of n ranks where the last
// rank runs factor× slower (factor 2 = half speed) and every other rank is
// nominal — the canonical single-straggler scenario. factor 1 models the
// uniform cluster.
func OneSlowRank(n int, factor float64) []float64 {
	if n <= 0 {
		return nil
	}
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = 1
	}
	ms[n-1] = factor
	return ms
}

// OneSlowRack returns multipliers for a racked cluster of racks×hostsPerRack
// ranks (rank-major by rack, the RackedTopology host order) where every rank
// in the last rack runs factor× slower — the shared-failure-domain straggler
// profile of the largescale experiment: one rack on degraded hardware or
// thermal throttle drags the whole job. factor 1 models the uniform cluster.
func OneSlowRack(racks, hostsPerRack int, factor float64) []float64 {
	n := racks * hostsPerRack
	if n <= 0 {
		return nil
	}
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = 1
	}
	for i := (racks - 1) * hostsPerRack; i < n; i++ {
		ms[i] = factor
	}
	return ms
}

// RampRanks returns multipliers that ramp linearly from 1 (rank 0) to
// maxFactor (last rank) — a mixed-hardware cluster where each generation is
// a bit slower than the last.
func RampRanks(n int, maxFactor float64) []float64 {
	if n <= 0 {
		return nil
	}
	ms := make([]float64, n)
	for i := range ms {
		if n == 1 {
			ms[i] = maxFactor
			continue
		}
		ms[i] = 1 + (maxFactor-1)*float64(i)/float64(n-1)
	}
	return ms
}

// --- Topology presets -------------------------------------------------------

// Fig4Options configures the paper's evaluation topology.
type Fig4Options struct {
	// BottleneckBps is the bandwidth of the two inter-switch links whose
	// speed the paper varies (100 Mbps, 500 Mbps, 1 Gbps).
	BottleneckBps float64
	// EdgeBps is the host-to-switch bandwidth (defaults to 10 Gbps).
	EdgeBps float64
	// LatencySec is the per-link one-way latency (defaults to 100 µs).
	LatencySec float64
}

// Fig4Topology builds the evaluation topology of the paper's Fig. 4: eight
// GPU servers spread across three virtual switches chained in a line, with
// the two inter-switch links forming the bandwidth bottleneck.
//
//	S1 S2 S3      S4 S5 S6     S7 S8
//	  \ | /        \ | /        \ /
//	   sw0 ——————— sw1 ——————— sw2
//	       (bottleneck)  (bottleneck)
func Fig4Topology(opt Fig4Options) *Topology {
	if opt.BottleneckBps <= 0 {
		opt.BottleneckBps = 1 * Gbps
	}
	if opt.EdgeBps <= 0 {
		opt.EdgeBps = 10 * Gbps
	}
	if opt.LatencySec <= 0 {
		opt.LatencySec = 100e-6
	}
	t := NewTopology()
	sw := make([]NodeID, 3)
	for i := range sw {
		sw[i] = t.AddNode(fmt.Sprintf("vswitch%d", i), Switch)
	}
	groups := [][]int{{1, 2, 3}, {4, 5, 6}, {7, 8}}
	for g, servers := range groups {
		for _, s := range servers {
			h := t.AddNode(fmt.Sprintf("S%d", s), Host)
			t.AddLink(h, sw[g], opt.EdgeBps, opt.LatencySec)
		}
	}
	t.AddLink(sw[0], sw[1], opt.BottleneckBps, opt.LatencySec)
	t.AddLink(sw[1], sw[2], opt.BottleneckBps, opt.LatencySec)
	return t
}

// FlatTopology builds n hosts on a single switch with uniform bandwidth,
// used by the ablation that isolates the bottleneck-link effect.
func FlatTopology(n int, bandwidthBps, latencySec float64) *Topology {
	t := NewTopology()
	sw := t.AddNode("switch", Switch)
	for i := 0; i < n; i++ {
		h := t.AddNode(fmt.Sprintf("S%d", i+1), Host)
		t.AddLink(h, sw, bandwidthBps, latencySec)
	}
	return t
}

// TwoRackOptions configures the two-rack fabric used by the collective-
// algorithm experiments: two switches joined by a single bottleneck link,
// hosts split as evenly as possible between them.
type TwoRackOptions struct {
	// Hosts is the total host count (defaults to 8, split 4+4).
	Hosts int
	// BottleneckBps is the inter-switch link speed.
	BottleneckBps float64
	// EdgeBps is the host-to-switch bandwidth (defaults to 10 Gbps).
	EdgeBps float64
	// LatencySec is the per-link one-way latency (defaults to 100 µs).
	LatencySec float64
}

// TwoRackTopology builds the minimal hierarchical fabric: two racks of
// hosts, each behind its own switch, with one inter-switch link as the only
// bottleneck. It is the cleanest stage for topology-aware collectives —
// every inter-rack byte must cross the same slow link.
//
//	S1..Sk        Sk+1..Sn
//	  \|/            \|/
//	  sw0 —————————— sw1
//	      (bottleneck)
func TwoRackTopology(opt TwoRackOptions) *Topology {
	if opt.Hosts <= 0 {
		opt.Hosts = 8
	}
	if opt.BottleneckBps <= 0 {
		opt.BottleneckBps = 1 * Gbps
	}
	if opt.EdgeBps <= 0 {
		opt.EdgeBps = 10 * Gbps
	}
	if opt.LatencySec <= 0 {
		opt.LatencySec = 100e-6
	}
	t := NewTopology()
	sw0 := t.AddNode("rack0", Switch)
	sw1 := t.AddNode("rack1", Switch)
	firstRack := (opt.Hosts + 1) / 2
	for i := 0; i < opt.Hosts; i++ {
		h := t.AddNode(fmt.Sprintf("S%d", i+1), Host)
		sw := sw0
		if i >= firstRack {
			sw = sw1
		}
		t.AddLink(h, sw, opt.EdgeBps, opt.LatencySec)
	}
	t.AddLink(sw0, sw1, opt.BottleneckBps, opt.LatencySec)
	return t
}

// RackedOptions configures the cluster-scale fabric of the largescale
// experiment: many racks of hosts, each behind its own top-of-rack switch,
// all ToR switches joined through a single spine.
type RackedOptions struct {
	// Racks is the rack count (defaults to 64).
	Racks int
	// HostsPerRack is the host count behind each ToR switch (defaults to 64).
	HostsPerRack int
	// BottleneckBps is the ToR-to-spine uplink speed.
	BottleneckBps float64
	// EdgeBps is the host-to-ToR bandwidth (defaults to 10 Gbps).
	EdgeBps float64
	// LatencySec is the per-link one-way latency (defaults to 100 µs).
	LatencySec float64
}

// RackedTopology builds a two-tier (ToR + spine) cluster fabric with
// Racks×HostsPerRack hosts numbered rack-major, so rank r lives in rack
// r/HostsPerRack and the hierarchical collective's Racks grouping matches
// the physical racks. Every inter-rack byte crosses two uplinks through the
// spine; the uplinks are the bottleneck.
//
//	S1..Sk   Sk+1..S2k      ...
//	  \|/       \|/
//	 rack0     rack1   ...  rackN
//	     \       |         /
//	      —————spine——————
//	       (bottleneck uplinks)
func RackedTopology(opt RackedOptions) *Topology {
	if opt.Racks <= 0 {
		opt.Racks = 64
	}
	if opt.HostsPerRack <= 0 {
		opt.HostsPerRack = 64
	}
	if opt.BottleneckBps <= 0 {
		opt.BottleneckBps = 10 * Gbps
	}
	if opt.EdgeBps <= 0 {
		opt.EdgeBps = 10 * Gbps
	}
	if opt.LatencySec <= 0 {
		opt.LatencySec = 100e-6
	}
	t := NewTopology()
	spine := t.AddNode("spine", Switch)
	host := 0
	for r := 0; r < opt.Racks; r++ {
		tor := t.AddNode(fmt.Sprintf("rack%d", r), Switch)
		t.AddLink(tor, spine, opt.BottleneckBps, opt.LatencySec)
		for h := 0; h < opt.HostsPerRack; h++ {
			host++
			id := t.AddNode(fmt.Sprintf("S%d", host), Host)
			t.AddLink(id, tor, opt.EdgeBps, opt.LatencySec)
		}
	}
	return t
}

// AttachedSwitch returns the first switch adjacent to the node, in link
// insertion order — the "rack" a host belongs to. ok is false for nodes
// with no switch neighbor (e.g. hosts wired point-to-point).
func (t *Topology) AttachedSwitch(n NodeID) (NodeID, bool) {
	if !t.has(n) {
		return 0, false
	}
	for _, li := range t.adj[n] {
		if other := t.other(li, n); t.Nodes[other].Kind == Switch {
			return other, true
		}
	}
	return 0, false
}

// InterSwitchLinks returns the indices of links whose endpoints are both
// switches — the bottleneck candidates in Fig. 4.
func (t *Topology) InterSwitchLinks() []int {
	var out []int
	for i, l := range t.Links {
		if t.Nodes[l.A].Kind == Switch && t.Nodes[l.B].Kind == Switch {
			out = append(out, i)
		}
	}
	return out
}
