package collective

import (
	"fmt"

	"pactrain/internal/netsim"
)

// Algorithm names one communication pattern for the three symmetric
// collective primitives — all-reduce, all-gather, broadcast. The Cluster
// executes the data plane identically under every algorithm (the sum is the
// sum); only the clock differs, so a run recorded under one algorithm can be
// re-costed exactly under another (see core.CostIter).
//
// A Pricer prices an algorithm's collectives over one fabric and host list
// (NewPricer); Algorithm.AllReduce is a one-shot wrapper that builds one.
// Prices are pure functions of their arguments (plus the fabric's traces,
// which see absolute time t): training and re-costing price identical ops at
// identical times, and the bit-exact re-costing contract (DESIGN.md §5) rests
// on the two paths agreeing to the last ulp. They are also monotone in the
// element count (TestAlgorithmCostMonotone).
//
// The parameter-server and block-sparse transports are deliberately outside
// this table (Pricer.PS, Pricer.BlockSparse): they are scheme-specific
// topologies of their own (incast onto one aggregator), not interchangeable
// patterns for the same logical operation.
type Algorithm struct {
	// Name is the selector identifier ("ring", "tree", "hierarchical").
	Name string
	// Description is a one-line summary for the catalog surfaces
	// (`pactrain-bench -list-collectives`, GET /v1/collectives).
	Description string

	kind algorithmKind
}

// algorithmKind selects a Pricer's pattern; the zero value is the ring.
type algorithmKind int

const (
	ringKind algorithmKind = iota
	treeKind
	hierarchicalKind
)

// AllReduce prices summing n elements across hosts, launched at t.
func (a Algorithm) AllReduce(f *netsim.Fabric, hosts []netsim.NodeID, n int, wire WireFormat, t float64) float64 {
	return NewPricer(a, f, hosts).AllReduce(n, wire, t)
}

// DefaultAlgorithm is the algorithm an empty selector resolves to — the
// paper's flat ring, the behavior every pre-existing experiment was costed
// with.
const DefaultAlgorithm = "ring"

// algorithms is the fixed algorithm table, in catalog order (ring first,
// the default).
var algorithms = []Algorithm{
	// The paper's flat ring: reduce-scatter + all-gather all-reduce, ring
	// all-gather, binomial-tree broadcast.
	{
		Name:        "ring",
		Description: "flat ring reduce-scatter + all-gather, the paper's setup and the default",
		kind:        ringKind,
	},
	// Rabenseifner's recursive halving/doubling all-reduce and a binomial
	// gather to rank 0 followed by a binomial broadcast: on a uniform
	// fabric it moves the ring's 2n(world-1)/world bytes per host in
	// log₂(world) rounds instead of world-1, the small-message regime.
	{
		Name:        "tree",
		Description: "recursive halving/doubling all-reduce, binomial gather+broadcast (small-message regime)",
		kind:        treeKind,
	},
	// The two-level, topology-aware pattern: hosts grouped into racks by
	// their attached switch (Racks), heavy intra-rack traffic on fast edge
	// links, one rack-aggregated stream per collective across the
	// bottleneck. On a single-rack topology it falls back to the flat ring.
	{
		Name:        "hierarchical",
		Description: "two-level rack-aware aggregation: intra-rack rings, leaders-only across the bottleneck",
		kind:        hierarchicalKind,
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
