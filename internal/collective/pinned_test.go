package collective

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"pactrain/internal/netsim"
)

// pinnedFabric is one stage of the pinned cost table: a fresh fabric per
// priced operation and the launch times to price at.
type pinnedFabric struct {
	name  string
	build func() *netsim.Fabric
	times []float64
}

// pinnedOp is one priced operation of the table.
type pinnedOp struct {
	name string
	cost func(f *netsim.Fabric, hosts []netsim.NodeID, t float64) float64
}

func pinnedFabrics() []pinnedFabric {
	fig4 := func() *netsim.Topology {
		return netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: 500 * netsim.Mbps})
	}
	return []pinnedFabric{
		{"fig4-8", func() *netsim.Fabric { return netsim.NewFabric(fig4()) }, []float64{0}},
		{"tworack-5", func() *netsim.Fabric {
			return netsim.NewFabric(netsim.TwoRackTopology(netsim.TwoRackOptions{
				Hosts: 5, BottleneckBps: 100 * netsim.Mbps, LatencySec: 37e-6}))
		}, []float64{0}},
		{"racked-4x3", func() *netsim.Fabric {
			return netsim.NewFabric(netsim.RackedTopology(netsim.RackedOptions{
				Racks: 4, HostsPerRack: 3, BottleneckBps: netsim.Gbps, EdgeBps: 25 * netsim.Gbps}))
		}, []float64{0.25}},
		// Traced: both inter-switch links dip at different times, so a
		// collective launched mid-segment crosses a boundary between steps.
		{"fig4-traced", func() *netsim.Fabric {
			topo := fig4()
			f := netsim.NewFabric(topo)
			inter := topo.InterSwitchLinks()
			f.SetTrace(&netsim.BandwidthTrace{LinkIndex: inter[0], Segments: []netsim.TraceSegment{
				{UntilSec: 0.01, Scale: 1}, {UntilSec: 0.05, Scale: 0.3}, {UntilSec: math.Inf(1), Scale: 0.7}}})
			f.SetTrace(&netsim.BandwidthTrace{LinkIndex: inter[1], Segments: []netsim.TraceSegment{
				{UntilSec: 0.03, Scale: 0.5}, {UntilSec: math.Inf(1), Scale: 1}}})
			return f
		}, []float64{0, 0.029}},
	}
}

// pinnedCostTable prices every cost function of the package on every pinned
// fabric and renders each duration as a hex float: one line per (fabric,
// launch time, operation).
func pinnedCostTable() string {
	hex := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	var b strings.Builder
	for _, pf := range pinnedFabrics() {
		world := len(pf.build().Topo.Hosts())
		sizes := make([]int, world)
		blocks := make([]int, world)
		for i := range sizes {
			sizes[i] = (i*977 + 13) % 4099 * (i % 3) // uneven, with zeros
			blocks[i] = 3 + 5*i
		}
		const n = 100003 // not divisible by any pinned world size
		ops := []pinnedOp{
			{"ps", func(f *netsim.Fabric, h []netsim.NodeID, t float64) float64 {
				return CostPSAggregate(f, h, n, WireFP16, t)
			}},
			{"blocksparse", func(f *netsim.Fabric, h []netsim.NodeID, t float64) float64 {
				return CostBlockSparseAggregate(f, h, blocks, 4*world, 256, 1.5, t)
			}},
		}
		for _, name := range AlgorithmNames() {
			alg := MustAlgorithm(name)
			ops = append(ops,
				pinnedOp{name + "/allreduce", func(f *netsim.Fabric, h []netsim.NodeID, t float64) float64 {
					return alg.AllReduce(f, h, n, WireFP32, t)
				}},
				pinnedOp{name + "/allgather", func(f *netsim.Fabric, h []netsim.NodeID, t float64) float64 {
					return NewPricer(alg, f, h).AllGather(sizes, WireSparse, t)
				}},
				pinnedOp{name + "/broadcast", func(f *netsim.Fabric, h []netsim.NodeID, t float64) float64 {
					return NewPricer(alg, f, h).Broadcast(world-2, 1<<20+7, t)
				}})
		}
		for _, at := range pf.times {
			for _, op := range ops {
				f := pf.build()
				d := op.cost(f, f.Topo.Hosts(), at)
				fmt.Fprintf(&b, "%s t=%v %s: %s\n", pf.name, at, op.name, hex(d))
			}
		}
	}
	return b.String()
}

// TestPinnedCostTable holds every cost function to the floats recorded at
// the commit before routes were pre-resolved (testdata/pinned_costs.txt):
// {ring, tree, hierarchical} × {all-reduce, all-gather, broadcast}, the
// parameter server and the block-sparse transport, on Fig. 4, an odd
// two-rack world, a 4×3 racked fabric, and a traced fabric at t = 0 and
// mid-segment — durations bit for bit. Each pinned line also carries the
// byte counters the fabric kept when it was recorded; the fabric keeps none
// now, so a line is compared up to its " total=".
func TestPinnedCostTable(t *testing.T) {
	want, err := os.ReadFile("testdata/pinned_costs.txt")
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(pinnedCostTable(), "\n"), strings.Split(string(want), "\n")
	for i := range wl {
		wl[i], _, _ = strings.Cut(wl[i], " total=")
	}
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("line %d moved:\n got %s\nwant %s", i+1, gl[i], w)
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("table has %d lines, pinned file has %d", len(gl), len(wl))
	}
}
