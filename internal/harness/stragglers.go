package harness

import (
	"fmt"
	"strings"

	"pactrain/internal/ddp"
	"pactrain/internal/harness/engine"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
)

// StragglerCell is one (scheme, overlap, severity) TTA measurement on the
// Fig. 4 fabric at the constrained bandwidth.
type StragglerCell struct {
	Scheme string
	// Overlap is the backward-overlap model ("none" or "backward").
	Overlap string
	// Severity is the slow rank's compute-time multiplier (1 = uniform
	// cluster, 2 = the last rank runs at half speed).
	Severity   float64
	TTASeconds float64
	Reached    bool
	// Degradation is TTASeconds / TTA(severity 1) for the same scheme and
	// overlap mode — how much the straggler costs this configuration.
	Degradation float64
}

// StragglersResult is the straggler grid: scheme × overlap × one-slow-rank
// severity, all priced on the paper's Fig. 4 fabric at its most constrained
// bandwidth. It is the first experiment that exercises the per-rank event
// timeline end to end: severities diverge the rank clocks, the overlap axis
// prices each bucket's collective at its gradient-ready barrier, and every
// cell is re-costed from one recording per scheme — core.Replay derives
// per-rank launches from the config, so the train-once economy
// extends across straggler profiles exactly as it does across bandwidths.
type StragglersResult struct {
	Cells      []StragglerCell
	Model      string
	Schemes    []string
	Overlaps   []string
	Severities []float64
	// BandwidthBps is the Fig. 4 bottleneck speed the grid is priced at.
	BandwidthBps float64
}

// StragglerSchemes lists the grid's schemes: the dense baseline, the
// cheapest dense compression, and PacTrain.
func StragglerSchemes() []string {
	return []string{"all-reduce", "fp16", "pactrain-ternary"}
}

// StragglerSeverities lists the one-slow-rank compute multipliers swept.
func StragglerSeverities() []float64 { return []float64{1, 1.5, 2} }

// stragglerBandwidth is the Fig. 4 bottleneck the grid prices at — the
// paper's most constrained operating point, where compression matters most.
const stragglerBandwidth = 100 * netsim.Mbps

// StragglerComputeModel prices compute on an edge-grade accelerator
// (~0.23 TFLOP/s fp32, Jetson-class) instead of the A40 default. The
// heterogeneous-cluster setting the experiment models — mixed or embedded
// hardware behind a WAN bottleneck — is exactly where compute is a
// meaningful fraction of the iteration, so a straggler's 2× compute factor
// is visible next to the communication phase; on A40-class workers at
// 100 Mbps the clock is so communication-dominated that any compute
// multiplier vanishes in the third decimal.
func StragglerComputeModel(flopsPerSample int64) ddp.ComputeModel {
	return ddp.ComputeModel{
		FLOPsPerSample: flopsPerSample,
		DeviceFLOPS:    0.23e12,
		Efficiency:     0.35,
		BackwardFactor: 2,
	}
}

// RunStragglers regenerates the straggler grid. Each scheme trains exactly
// once, on the default uniform serialized configuration — byte-identical to
// Fig. 3's jobs, so an engine shared across experiments pays nothing extra
// — and every (overlap, severity) cell re-prices the recorded log on
// per-rank timelines under the edge-grade compute model: the op sequence a
// static scheme records depends only on gradient values, never on clocks,
// so one recording is exact under every compute model, straggler profile,
// and overlap mode (TestStragglerRecostReproducesTraining pins this against
// real heterogeneous trainings).
func RunStragglers(opt Options) (*StragglersResult, error) {
	opt.defaults()
	eng := opt.engine()
	w := opt.workloads()[0]
	out := &StragglersResult{
		Model:        w.Model,
		Schemes:      StragglerSchemes(),
		Overlaps:     ddp.OverlapNames(),
		Severities:   StragglerSeverities(),
		BandwidthBps: stragglerBandwidth,
	}
	opt.logf("Stragglers: %d schemes × %d overlap modes × %d severities on %s (Fig. 4 at %s)",
		len(out.Schemes), len(out.Overlaps), len(out.Severities), w.Model,
		netsim.FormatBandwidth(out.BandwidthBps))

	var jobs []engine.Job
	for _, scheme := range out.Schemes {
		jobs = append(jobs, trainJob("stragglers", w, scheme, opt))
	}
	results, err := eng.RunAll(jobs)
	if err != nil {
		return nil, fmt.Errorf("stragglers: %w", err)
	}
	opt.traceRuns(jobs, results)
	opt.traceRecost("stragglers", map[string]any{
		"overlaps": len(out.Overlaps), "severities": len(out.Severities),
	})

	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: out.BandwidthBps})
	maxSev := out.Severities[len(out.Severities)-1]
	for si, scheme := range out.Schemes {
		res := results[si]
		for _, overlap := range out.Overlaps {
			uniformTTA := 0.0
			for _, sev := range out.Severities {
				cfg := jobs[si].Config
				cfg.Compute = StragglerComputeModel(cfg.Profile.FLOPsPerSample)
				cfg.Overlap = ddp.MustOverlap(overlap)
				if sev != 1 {
					cfg.RankCompute = ddp.RankCompute{
						Multipliers: netsim.OneSlowRank(cfg.World, sev),
					}
				}
				cum := recostCum(res, &cfg, netsim.NewFabric(topo))
				tta, reached := ttaFromCum(res, cum, w.TargetAcc)
				if opt.Tracer != nil && sev == maxSev {
					// Replay the worst-severity cells in full: the wait
					// spans on the slow rank's peers are the experiment's
					// whole story. The milder cells stay as marks —
					// tracing the full grid would dwarf the training runs.
					label := fmt.Sprintf("stragglers cell %s/%s sev %g",
						DisplayName(scheme), overlap, sev)
					traceRunOn(opt.Tracer, label, "", cfg, res, netsim.NewFabric(topo))
				}
				if sev == 1 {
					uniformTTA = tta
				}
				out.Cells = append(out.Cells, StragglerCell{
					Scheme: scheme, Overlap: overlap, Severity: sev,
					TTASeconds: tta, Reached: reached,
					Degradation: metrics.RelativeTTA(tta, uniformTTA),
				})
			}
		}
	}
	return out, nil
}

// Cell fetches one grid entry.
func (r *StragglersResult) Cell(scheme, overlap string, sev float64) (StragglerCell, bool) {
	for _, c := range r.Cells {
		if c.Scheme == scheme && c.Overlap == overlap && c.Severity == sev {
			return c, true
		}
	}
	return StragglerCell{}, false
}

// Render prints one table per overlap mode (rows = schemes, columns =
// severities, cells = TTA with the degradation over the uniform cluster).
func (r *StragglersResult) Render() string {
	var b strings.Builder
	for _, overlap := range r.Overlaps {
		headers := []string{"scheme \\ slow-rank ×"}
		for _, sev := range r.Severities {
			headers = append(headers, fmt.Sprintf("%g×", sev))
		}
		tb := metrics.NewTable(fmt.Sprintf(
			"Stragglers — TTA with one slow rank (%s; Fig. 4 at %s; overlap=%s; ×degradation vs uniform)",
			r.Model, netsim.FormatBandwidth(r.BandwidthBps), overlap), headers...)
		for _, scheme := range r.Schemes {
			row := []string{DisplayName(scheme)}
			for _, sev := range r.Severities {
				if c, ok := r.Cell(scheme, overlap, sev); ok {
					cell := fmt.Sprintf("%s (%.3f×)", metrics.FormatSeconds(c.TTASeconds), c.Degradation)
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
	for _, overlap := range r.Overlaps {
		pac, okP := r.Cell("pactrain-ternary", overlap, 2)
		dense, okD := r.Cell("all-reduce", overlap, 2)
		if okP && okD {
			fmt.Fprintf(&b, "2× straggler, overlap=%s: PacTrain %s vs dense %s (%.2f× faster)\n",
				overlap, metrics.FormatSeconds(pac.TTASeconds),
				metrics.FormatSeconds(dense.TTASeconds),
				metrics.Speedup(pac.TTASeconds, dense.TTASeconds))
		}
	}
	return b.String()
}
