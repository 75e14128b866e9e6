package harness

import (
	"fmt"
	"strings"

	"pactrain/internal/collective"
	"pactrain/internal/harness/engine"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
)

// CollectivesCell is one (algorithm, scheme, bandwidth) TTA measurement on
// the two-rack fabric.
type CollectivesCell struct {
	Algorithm    string
	Scheme       string
	BandwidthBps float64
	TTASeconds   float64
	Reached      bool
	// SpeedupVsRing is TTA(ring)/TTA(this algorithm) for the same scheme
	// and bandwidth (>1 means this algorithm is faster than the flat ring).
	SpeedupVsRing float64
}

// CollectivesResult is the collective-algorithm grid: every registered
// algorithm × the Fig. 3 bandwidths × a scheme subset, priced on a two-rack
// fabric whose single inter-switch link is the bottleneck. It is the first
// experiment where the simulated topology structure — not just link speed —
// can change the ranking of compression schemes: hierarchical aggregation
// crosses the bottleneck once per rack instead of once per ring step.
type CollectivesResult struct {
	Cells      []CollectivesCell
	Model      string
	Algorithms []string
	Schemes    []string
	Bandwidths []float64
	// EdgeBps is the intra-rack host-to-switch speed of the fabric.
	EdgeBps float64
}

// CollectivesSchemes lists the schemes the grid prices: the uncompressed
// baseline, the cheapest dense compression, and PacTrain.
func CollectivesSchemes() []string {
	return []string{"all-reduce", "fp16", "pactrain-ternary"}
}

// RunCollectives regenerates the algorithm grid. Each scheme trains once —
// the convergence trajectory is algorithm-independent, because the data
// plane sums identically under every algorithm — and the recorded
// communication is re-priced per (algorithm, bandwidth) on the two-rack
// fabric (bit-exact versus training under that algorithm directly; see
// TestRecostExactPerAlgorithm).
func RunCollectives(opt Options) (*CollectivesResult, error) {
	opt.defaults()
	eng := opt.engine()
	w := opt.workloads()[0]
	out := &CollectivesResult{
		Model:      w.Model,
		Algorithms: collective.AlgorithmNames(),
		Schemes:    CollectivesSchemes(),
		Bandwidths: Fig3Bandwidths(),
		EdgeBps:    10 * netsim.Gbps,
	}
	opt.logf("Collectives: %d algorithms × %d schemes × %d bandwidths on %s (two-rack fabric)",
		len(out.Algorithms), len(out.Schemes), len(out.Bandwidths), w.Model)

	var jobs []engine.Job
	for _, scheme := range out.Schemes {
		jobs = append(jobs, trainJob("collectives", w, scheme, opt))
	}
	results, err := eng.RunAll(jobs)
	if err != nil {
		return nil, fmt.Errorf("collectives: %w", err)
	}
	opt.traceRuns(jobs, results)
	opt.traceRecost("collectives", map[string]any{
		"algorithms": len(out.Algorithms), "bandwidths": len(out.Bandwidths),
	})

	for si, scheme := range out.Schemes {
		res, cfg := results[si], jobs[si].Config
		for _, bw := range out.Bandwidths {
			topo := netsim.TwoRackTopology(netsim.TwoRackOptions{
				Hosts: opt.World, BottleneckBps: bw, EdgeBps: out.EdgeBps,
			})
			ringTTA := 0.0
			for _, algo := range out.Algorithms {
				fabric := netsim.NewFabric(topo)
				cum := recostCumWith(collective.MustAlgorithm(algo), res, &cfg, fabric, false)
				tta, reached := ttaFromCum(res, cum, w.TargetAcc)
				if algo == collective.DefaultAlgorithm {
					ringTTA = tta
				}
				out.Cells = append(out.Cells, CollectivesCell{
					Algorithm: algo, Scheme: scheme, BandwidthBps: bw,
					TTASeconds: tta, Reached: reached,
					SpeedupVsRing: metrics.Speedup(tta, ringTTA),
				})
			}
		}
	}
	return out, nil
}

// Cell fetches one grid entry.
func (r *CollectivesResult) Cell(algo, scheme string, bw float64) (CollectivesCell, bool) {
	for _, c := range r.Cells {
		if c.Algorithm == algo && c.Scheme == scheme && c.BandwidthBps == bw {
			return c, true
		}
	}
	return CollectivesCell{}, false
}

// HierarchicalSpeedup returns the best hierarchical-over-ring speedup for a
// scheme across the swept bandwidths — the experiment's headline (topology-
// aware aggregation pays most when the inter-rack link is slowest).
func (r *CollectivesResult) HierarchicalSpeedup(scheme string) float64 {
	best := 0.0
	for _, c := range r.Cells {
		if c.Algorithm == "hierarchical" && c.Scheme == scheme && c.SpeedupVsRing > best {
			best = c.SpeedupVsRing
		}
	}
	return best
}

// Render prints one table per bandwidth (rows = algorithms, columns =
// schemes, cells = TTA with the speedup over the flat ring).
func (r *CollectivesResult) Render() string {
	var b strings.Builder
	for _, bw := range r.Bandwidths {
		headers := append([]string{"algorithm \\ scheme"}, func() []string {
			names := make([]string, len(r.Schemes))
			for i, s := range r.Schemes {
				names[i] = DisplayName(s)
			}
			return names
		}()...)
		tb := metrics.NewTable(fmt.Sprintf(
			"Collectives — TTA on two-rack fabric (%s; %s bottleneck, %s edges; vs ring)",
			r.Model, netsim.FormatBandwidth(bw), netsim.FormatBandwidth(r.EdgeBps)), headers...)
		for _, algo := range r.Algorithms {
			row := []string{algo}
			for _, scheme := range r.Schemes {
				if c, ok := r.Cell(algo, scheme, bw); ok {
					cell := fmt.Sprintf("%s (%.2f×)", metrics.FormatSeconds(c.TTASeconds), c.SpeedupVsRing)
					if !c.Reached {
						cell = ">" + cell
					}
					row = append(row, cell)
				} else {
					row = append(row, "-")
				}
			}
			tb.AddRow(row...)
		}
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "Best hierarchical speedup over flat ring: all-reduce %.2f×, PacTrain %.2f×\n",
		r.HierarchicalSpeedup("all-reduce"), r.HierarchicalSpeedup("pactrain-ternary"))
	return b.String()
}
