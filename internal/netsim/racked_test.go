package netsim

import (
	"slices"
	"testing"
)

func TestRackedTopologyStructure(t *testing.T) {
	t.Parallel()
	topo := RackedTopology(RackedOptions{Racks: 4, HostsPerRack: 3})
	hosts := topo.Hosts()
	if len(hosts) != 12 {
		t.Fatalf("%d hosts, want 12", len(hosts))
	}
	// Rank-major by rack: rank r's host attaches to the ToR of rack r/3, so
	// the hierarchical collective's rack grouping matches the physical racks.
	torOfRack := make(map[int]NodeID)
	for r, h := range hosts {
		tor, ok := topo.AttachedSwitch(h)
		if !ok {
			t.Fatalf("host %d has no switch", r)
		}
		rack := r / 3
		if prev, seen := torOfRack[rack]; seen && prev != tor {
			t.Fatalf("host %d: rack %d split across switches %v and %v", r, rack, prev, tor)
		}
		torOfRack[rack] = tor
	}
	if len(torOfRack) != 4 {
		t.Fatalf("%d racks, want 4", len(torOfRack))
	}
	distinct := make(map[NodeID]bool)
	for _, tor := range torOfRack {
		distinct[tor] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("racks share ToR switches: %v", torOfRack)
	}
	// Two-tier: every cross-rack path is host → ToR → spine → ToR → host.
	if path := topo.Path(hosts[0], hosts[11]); len(path) != 4 {
		t.Fatalf("cross-rack path has %d links, want 4", len(path))
	}
	if intra := topo.Path(hosts[0], hosts[1]); len(intra) != 2 {
		t.Fatalf("intra-rack path has %d links, want 2", len(intra))
	}
}

func TestOneSlowRackProfile(t *testing.T) {
	t.Parallel()
	ms := OneSlowRack(4, 3, 2)
	if len(ms) != 12 {
		t.Fatalf("%d multipliers, want 12", len(ms))
	}
	for r, m := range ms {
		want := 1.0
		if r >= 9 { // last rack's three ranks
			want = 2
		}
		if m != want {
			t.Fatalf("rank %d multiplier %v, want %v", r, m, want)
		}
	}
	if OneSlowRack(0, 3, 2) != nil {
		t.Fatal("empty cluster should yield nil")
	}
}

// TestPathCacheConsistency: what Path caches is the rooted index — built on
// first use, rebuilt after the graph grows, and abandoned for breadth-first
// search once a link closes a cycle.
func TestPathCacheConsistency(t *testing.T) {
	t.Parallel()
	topo := RackedTopology(RackedOptions{Racks: 2, HostsPerRack: 2})
	hosts := topo.Hosts()
	first := topo.Path(hosts[0], hosts[3])
	if len(first) != 4 {
		t.Fatalf("cross-rack path %v, want 4 links", first)
	}
	if second := topo.Path(hosts[0], hosts[3]); !slices.Equal(first, second) {
		t.Fatalf("repeated path %v differs from first %v", second, first)
	}
	if ix := topo.index(); len(ix) != len(topo.Nodes) {
		t.Fatalf("a racked preset is a tree, but the index holds %d of %d nodes", len(ix), len(topo.Nodes))
	}

	// Growing the tree drops the index; the next path sees the new leaf.
	leaf := topo.AddNode("S5", Host)
	li := topo.AddLink(leaf, hosts[3], Gbps, 1e-6)
	if topo.tree.Load() != nil {
		t.Fatal("AddLink kept a stale index")
	}
	if got := topo.Path(hosts[0], leaf); len(got) != 5 || got[4] != li {
		t.Fatalf("path to the new leaf %v, want 5 links ending in link %d", got, li)
	}
	if ix := topo.index(); len(ix) != len(topo.Nodes) {
		t.Fatalf("rebuilt index holds %d of %d nodes", len(ix), len(topo.Nodes))
	}

	// A direct link between the two hosts closes a cycle: the graph is no
	// longer a tree, and the search finds the new shortest path.
	topo.AddLink(hosts[0], hosts[3], Gbps, 1e-6)
	if short := topo.Path(hosts[0], hosts[3]); len(short) != 1 {
		t.Fatalf("post-AddLink path has %d links, want 1 (stale index?)", len(short))
	}
	if topo.index() != nil {
		t.Fatal("a graph with a cycle kept a rooted index")
	}
	if got := topo.Path(hosts[1], leaf); len(got) != 4 {
		t.Fatalf("path through the shortcut %v, want 4 links", got)
	}
}
