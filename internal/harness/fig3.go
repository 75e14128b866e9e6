package harness

import (
	"fmt"
	"strings"

	"pactrain/internal/harness/engine"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
)

// Fig3Bandwidths lists the three WAN bottleneck speeds of Fig. 3.
func Fig3Bandwidths() []float64 {
	return []float64{100 * netsim.Mbps, 500 * netsim.Mbps, 1 * netsim.Gbps}
}

// Fig3Cell is one bar of Fig. 3: a (model, scheme, bandwidth) TTA
// measurement normalized to the all-reduce baseline at the same bandwidth.
type Fig3Cell struct {
	Model        string
	Scheme       string
	BandwidthBps float64
	TTASeconds   float64
	Reached      bool
	// RelTTA is TTA / TTA(all-reduce); the paper plots this on a log scale
	// (lower is better, baseline = 1.0).
	RelTTA float64
	// Speedup is the inverse, the form quoted in the abstract.
	Speedup float64
}

// Fig3Result holds the full grid.
type Fig3Result struct {
	Cells      []Fig3Cell
	Models     []string
	Schemes    []string
	Bandwidths []float64
}

// RunFig3 regenerates Fig. 3: for every workload × scheme it trains once
// (recording per-iteration communication), then re-costs the run under each
// bottleneck bandwidth and normalizes TTA to the all-reduce baseline.
func RunFig3(opt Options) (*Fig3Result, error) {
	opt.defaults()
	workloads := opt.workloads()
	schemes := Fig3Schemes()
	bandwidths := Fig3Bandwidths()

	out := &Fig3Result{Schemes: schemes, Bandwidths: bandwidths}
	opt.logf("Fig. 3: end-to-end TTA, %d models × %d schemes × %d bandwidths",
		len(workloads), len(schemes), len(bandwidths))

	var jobs []engine.Job
	for _, w := range workloads {
		jobs = append(jobs, trainJobs("fig3", w, opt, schemes...)...)
	}
	recs, err := opt.train("fig3", jobs)
	if err != nil {
		return nil, err
	}
	opt.traceRecost("fig3", map[string]any{"bandwidths": len(bandwidths), "runs": len(jobs)})

	for wi, w := range workloads {
		out.Models = append(out.Models, w.Model)
		baselineTTA := make(map[float64]float64)
		for si, scheme := range schemes {
			for _, bw := range bandwidths {
				tta, reached := recs[wi*len(schemes)+si].tta(fig4At(bw), w.TargetAcc)
				if scheme == "all-reduce" {
					baselineTTA[bw] = tta
				}
				base := baselineTTA[bw]
				out.Cells = append(out.Cells, Fig3Cell{
					Model: w.Model, Scheme: scheme, BandwidthBps: bw,
					TTASeconds: tta, Reached: reached,
					RelTTA:  metrics.RelativeTTA(tta, base),
					Speedup: metrics.Speedup(tta, base),
				})
			}
		}
	}
	return out, nil
}

// Cell fetches one grid entry.
func (r *Fig3Result) Cell(model, scheme string, bw float64) (Fig3Cell, bool) {
	return lookup(r.Cells, func(c Fig3Cell) bool {
		return c.Model == model && c.Scheme == scheme && c.BandwidthBps == bw
	})
}

// MaxSpeedup returns the largest PacTrain speedup over all-reduce across
// the grid (the paper's headline "up to 8.72×").
func (r *Fig3Result) MaxSpeedup() float64 {
	best := 0.0
	for _, c := range r.Cells {
		if c.Scheme == "pactrain-ternary" && c.Reached && c.Speedup > best {
			best = c.Speedup
		}
	}
	return best
}

// Render prints one relative-TTA table per bandwidth, shaped like
// Fig. 3(a)–(c) (rows = schemes, columns = models, values = TTA relative
// to all-reduce, lower is better).
func (r *Fig3Result) Render() string {
	var b strings.Builder
	for _, bw := range r.Bandwidths {
		title := fmt.Sprintf("Fig. 3 — Relative TTA at WAN bandwidth %s (all-reduce = 1.0, lower is better)",
			netsim.FormatBandwidth(bw))
		b.WriteString(grid(title, "scheme \\ model", labels(r.Schemes, DisplayName), r.Models,
			func(i, j int) (string, bool) {
				c, ok := r.Cell(r.Models[j], r.Schemes[i], bw)
				return flagMissed(fmt.Sprintf("%.3f", c.RelTTA), c.Reached), ok
			}))
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "Max PacTrain speedup over all-reduce: %.2f×\n", r.MaxSpeedup())
	return b.String()
}
