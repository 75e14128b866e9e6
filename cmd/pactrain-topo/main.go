// Command pactrain-topo inspects the simulated network: it prints the
// topology, quotes point-to-point transfer times, and estimates one
// gradient synchronization for each paper model under every aggregation
// primitive — a what-if calculator for the communication side of the
// paper's evaluation.
//
// Example:
//
//	pactrain-topo -bw 100mbps
//	pactrain-topo -topology flat -world 4 -bw 1gbps
//	pactrain-topo -collective hierarchical -bw 100mbps
package main

import (
	"flag"
	"fmt"
	"os"

	"pactrain/internal/cli"
	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
)

func main() { os.Exit(run()) }

func run() int {
	topoName := flag.String("topology", "fig4", "fig4|flat")
	bw := flag.String("bw", "1gbps", "bottleneck (fig4) or uniform (flat) bandwidth")
	world := flag.Int("world", 8, "worker count")
	batch := flag.Int("batch", 32, "per-GPU batch size for the compute estimate")
	collectiveAlgo := cli.Collective(flag.CommandLine)
	flag.Parse()

	bandwidth, err := netsim.ParseBandwidth(*bw)
	if err != nil {
		return cli.Usage(fmt.Errorf("-bw: %w", err))
	}
	algo, err := collective.AlgorithmByName(*collectiveAlgo)
	if err != nil {
		return cli.Usage(err)
	}

	var topo *netsim.Topology
	switch *topoName {
	case "fig4":
		topo = netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: bandwidth})
	case "flat":
		topo = netsim.FlatTopology(*world, bandwidth, 1e-4)
	default:
		return cli.Usage(fmt.Errorf("-topology: unknown topology %q", *topoName))
	}
	hosts := topo.Hosts()
	if len(hosts) < *world {
		return cli.Fail(fmt.Errorf("topology has %d hosts for %d workers", len(hosts), *world))
	}
	hosts = hosts[:*world]

	fmt.Printf("topology %s, %d nodes, %d links, %d workers\n\n", *topoName, len(topo.Nodes), len(topo.Links), *world)
	for _, l := range topo.Links {
		fmt.Printf("  %-10s — %-10s  %8s  %.0fµs\n",
			topo.Nodes[l.A].Name, topo.Nodes[l.B].Name,
			netsim.FormatBandwidth(l.BandwidthBps), l.LatencySec*1e6)
	}

	fabric := netsim.NewFabric(topo)
	fmt.Printf("\npoint-to-point quotes (10 MiB payload):\n")
	pairs := [][2]int{{0, 1}, {0, *world - 1}}
	for _, p := range pairs {
		dt, err := fabric.TransferTime(hosts[p[0]], hosts[p[1]], 10<<20, 0)
		if err != nil {
			return cli.Fail(err)
		}
		fmt.Printf("  %s → %s: %s\n", topo.Nodes[hosts[p[0]]].Name, topo.Nodes[hosts[p[1]]].Name,
			metrics.FormatSeconds(dt))
	}

	fmt.Printf("\nper-iteration gradient synchronization estimates (%s collective):\n", algo.Name())
	tb := metrics.NewTable("", "model", "grad size", algo.Name()+" all-reduce", "PS", "PacTrain(0.5)+ternary", "compute/iter")
	for _, prof := range nn.Profiles() {
		n := int(prof.Params)
		// The symmetric collectives price under the selected algorithm; the
		// parameter server is a scheme topology of its own and always
		// prices the same way (see collective.Algorithm), through the
		// pricer a trained PS op goes through.
		ar := algo.AllReduce(fabric, hosts, n, collective.WireFP32, 0)
		ps := core.CostOp(core.CommOp{Kind: core.OpPS, Elements: n, Wire: collective.WireFP32}, algo, fabric, hosts, 0)
		pac := algo.AllReduce(fabric, hosts, n/2, collective.WireInt8, 0)
		iterCompute := float64(prof.FLOPsPerSample) * float64(*batch) * 3 / (37.4e12 * 0.35)
		tb.AddRow(prof.Name,
			metrics.FormatBytes(float64(prof.GradBytes())),
			metrics.FormatSeconds(ar), metrics.FormatSeconds(ps), metrics.FormatSeconds(pac),
			metrics.FormatSeconds(iterCompute))
	}
	fmt.Print(tb.String())
	fmt.Printf("\n(compute model: A40 @ 37.4 TFLOP/s fp32, 35%% efficiency, backward = 2× forward)\n")
	return 0
}
