package harness

import (
	"fmt"

	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
)

// VarBWRow is one scheme's result under the oscillating-bandwidth trace.
type VarBWRow struct {
	Scheme     string
	TTASeconds float64
	Reached    bool
	FinalAcc   float64
}

// VarBWResult reproduces the paper's "variable-constrained network
// bandwidth" scenario (§I, §IV): the two inter-switch bottleneck links of
// Fig. 4 oscillate between full speed and a deep dip, as WAN links between
// small clusters do. Schemes with smaller payloads ride out the dips;
// full-size all-reduce stalls in them.
type VarBWResult struct {
	Rows      []VarBWRow
	Model     string
	PeriodSec float64
	DipScale  float64
}

// RunAblationVarBW measures TTA for the Fig. 3 schemes under an
// oscillating bottleneck: full bandwidth and a 10× dip alternating with a
// period sized to the baseline's run length, so every run experiences
// several dips.
//
// No scheme trains under the oscillation: convergence is bandwidth-
// independent (synchronization is bit-exact at any link speed), so each
// scheme's recorded untraced run — typically already trained by another
// experiment sharing the engine — is re-costed on a traced fabric, which
// reproduces a traced training's clock exactly
// (TestRecostReproducesTrainingWithTraces).
func RunAblationVarBW(opt Options) (*VarBWResult, error) {
	opt.defaults()
	w := opt.workloads()[0]
	out := &VarBWResult{Model: w.Model, DipScale: 0.1}
	opt.logf("Ablation: variable-constrained bandwidth on %s", w.Model)

	schemes := []string{"all-reduce", "fp16", "pactrain-ternary"}
	recs, err := opt.train("ablation-varbw", trainJobs("ablation-varbw", w, opt, schemes...))
	if err != nil {
		return nil, err
	}
	// Size the oscillation period from the untraced all-reduce baseline.
	period := recs[0].res.SimSeconds / 6
	if period <= 0 {
		period = 1
	}
	out.PeriodSec = period
	opt.traceRecost("ablation-varbw", map[string]any{"period_sec": period})
	for si, scheme := range schemes {
		topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: recs[si].cfg.BottleneckBps})
		at := point{topo: topo, traces: oscillatingTraces(topo, period, out.DipScale)}
		tta, reached := recs[si].tta(at, w.TargetAcc)
		out.Rows = append(out.Rows, VarBWRow{
			Scheme: scheme, TTASeconds: tta, Reached: reached, FinalAcc: recs[si].res.FinalAcc,
		})
	}
	return out, nil
}

// Render prints the comparison.
func (r *VarBWResult) Render() string {
	tb := metrics.NewTable(
		fmt.Sprintf("Ablation — variable-constrained bandwidth (%s; bottleneck oscillates 1.0↔%.1f× every %s)",
			r.Model, r.DipScale, metrics.FormatSeconds(r.PeriodSec)),
		"scheme", "TTA", "reached", "final acc", "speedup")
	var base float64
	for _, row := range r.Rows {
		if row.Scheme == "all-reduce" {
			base = row.TTASeconds
		}
	}
	for _, row := range r.Rows {
		tb.AddRow(DisplayName(row.Scheme), metrics.FormatSeconds(row.TTASeconds),
			fmt.Sprintf("%v", row.Reached), fmt.Sprintf("%.3f", row.FinalAcc),
			fmt.Sprintf("%.2f×", metrics.Speedup(row.TTASeconds, base)))
	}
	return tb.String()
}
