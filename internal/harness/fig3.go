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
	eng := opt.engine()
	workloads := opt.workloads()
	schemes := Fig3Schemes()
	bandwidths := Fig3Bandwidths()

	out := &Fig3Result{Schemes: schemes, Bandwidths: bandwidths}
	opt.logf("Fig. 3: end-to-end TTA, %d models × %d schemes × %d bandwidths",
		len(workloads), len(schemes), len(bandwidths))

	var jobs []engine.Job
	for _, w := range workloads {
		for _, scheme := range schemes {
			jobs = append(jobs, trainJob("fig3", w, scheme, opt))
		}
	}
	results, err := eng.RunAll(jobs)
	if err != nil {
		return nil, fmt.Errorf("fig3: %w", err)
	}
	opt.traceRuns(jobs, results)
	opt.traceRecost("fig3", map[string]any{"bandwidths": len(bandwidths), "runs": len(jobs)})

	for wi, w := range workloads {
		out.Models = append(out.Models, w.Model)
		baselineTTA := make(map[float64]float64)
		for si, scheme := range schemes {
			res := results[wi*len(schemes)+si]
			cfg := jobs[wi*len(schemes)+si].Config
			for _, bw := range bandwidths {
				tta, reached := recostTTA(res, &cfg, bw, w.TargetAcc)
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
	for _, c := range r.Cells {
		if c.Model == model && c.Scheme == scheme && c.BandwidthBps == bw {
			return c, true
		}
	}
	return Fig3Cell{}, false
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
		headers := append([]string{"scheme \\ model"}, r.Models...)
		tb := metrics.NewTable(fmt.Sprintf("Fig. 3 — Relative TTA at WAN bandwidth %s (all-reduce = 1.0, lower is better)",
			netsim.FormatBandwidth(bw)), headers...)
		for _, scheme := range r.Schemes {
			row := []string{DisplayName(scheme)}
			for _, model := range r.Models {
				if c, ok := r.Cell(model, scheme, bw); ok {
					row = append(row, renderRelTTA(c.RelTTA, c.Reached))
				} else {
					row = append(row, "-")
				}
			}
			tb.AddRow(row...)
		}
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "Max PacTrain speedup over all-reduce: %.2f×\n", r.MaxSpeedup())
	return b.String()
}
