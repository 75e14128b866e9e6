package harness

import (
	"fmt"
	"strings"

	"pactrain/internal/harness/engine"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
)

// AblationMTRow is one mask-tracker window measurement.
type AblationMTRow struct {
	Window         int
	StableFraction float64
	TTASeconds     float64
	Reached        bool
	FinalAcc       float64
}

// AblationMTResult sweeps the Mask Tracker stability window (§III-C leaves
// it unspecified; DESIGN.md calls out the choice).
type AblationMTResult struct {
	Rows  []AblationMTRow
	Model string
}

// RunAblationMT measures how the stability window trades compact-path
// coverage against robustness.
func RunAblationMT(opt Options) (*AblationMTResult, error) {
	opt.defaults()
	w := opt.workloads()[0]
	out := &AblationMTResult{Model: w.Model}
	opt.logf("Ablation: Mask Tracker stability window on %s", w.Model)
	windows := []int{1, 2, 4, 8}
	var jobs []engine.Job
	for _, window := range windows {
		cfg := baseConfig(w, "pactrain", opt)
		cfg.StableWindow = window
		jobs = append(jobs, engine.Job{
			Label:  fmt.Sprintf("ablation-mt %s/w%d", w.Model, window),
			Config: cfg,
		})
	}
	recs, err := opt.train("ablation-mt", jobs)
	if err != nil {
		return nil, err
	}
	for wi, window := range windows {
		res := recs[wi].res
		tta, reached := res.Curve.TTA(w.TargetAcc)
		out.Rows = append(out.Rows, AblationMTRow{
			Window: window, StableFraction: res.StableFraction,
			TTASeconds: tta, Reached: reached, FinalAcc: res.FinalAcc,
		})
		opt.logf("  window %d: stable fraction %.3f, final acc %.3f", window, res.StableFraction, res.FinalAcc)
	}
	return out, nil
}

// Render prints the sweep.
func (r *AblationMTResult) Render() string {
	tb := metrics.NewTable(fmt.Sprintf("Ablation — Mask Tracker stability window (%s)", r.Model),
		"window", "compact-path fraction", "TTA", "final acc")
	for _, row := range r.Rows {
		tb.AddRow(fmt.Sprintf("%d", row.Window), fmt.Sprintf("%.3f", row.StableFraction),
			metrics.FormatSeconds(row.TTASeconds), fmt.Sprintf("%.3f", row.FinalAcc))
	}
	return tb.String()
}

// AblationTernaryRow compares PacTrain with and without the ternary stage
// at one bandwidth.
type AblationTernaryRow struct {
	BandwidthBps float64
	PlainTTA     float64
	TernaryTTA   float64
	PlainAcc     float64
	TernaryAcc   float64
}

// AblationTernaryResult isolates the contribution of §III-D's ternary
// quantization on top of mask-compact communication.
type AblationTernaryResult struct {
	Rows  []AblationTernaryRow
	Model string
}

// RunAblationTernary trains pactrain and pactrain-ternary once each and
// re-costs both across the Fig. 3 bandwidths.
func RunAblationTernary(opt Options) (*AblationTernaryResult, error) {
	opt.defaults()
	w := opt.workloads()[0]
	out := &AblationTernaryResult{Model: w.Model}
	opt.logf("Ablation: ternary stage on %s", w.Model)

	recs, err := opt.train("ablation-tern", trainJobs("ablation-tern", w, opt, "pactrain", "pactrain-ternary"))
	if err != nil {
		return nil, err
	}
	opt.traceRecost("ablation-tern", map[string]any{"bandwidths": len(Fig3Bandwidths())})
	plain, tern := recs[0], recs[1]
	for _, bw := range Fig3Bandwidths() {
		at := fig4At(bw)
		pt, _ := plain.tta(at, w.TargetAcc)
		tt, _ := tern.tta(at, w.TargetAcc)
		out.Rows = append(out.Rows, AblationTernaryRow{
			BandwidthBps: bw, PlainTTA: pt, TernaryTTA: tt,
			PlainAcc: plain.res.FinalAcc, TernaryAcc: tern.res.FinalAcc,
		})
	}
	return out, nil
}

// Render prints the comparison.
func (r *AblationTernaryResult) Render() string {
	tb := metrics.NewTable(fmt.Sprintf("Ablation — pruning-only vs pruning+ternary (%s)", r.Model),
		"bandwidth", "PacTrain TTA", "PacTrain+ternary TTA", "ternary gain")
	for _, row := range r.Rows {
		tb.AddRow(netsim.FormatBandwidth(row.BandwidthBps),
			metrics.FormatSeconds(row.PlainTTA), metrics.FormatSeconds(row.TernaryTTA),
			fmt.Sprintf("%.2f×", row.PlainTTA/row.TernaryTTA))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	if len(r.Rows) > 0 {
		fmt.Fprintf(&b, "final acc: plain %.3f, ternary %.3f\n", r.Rows[0].PlainAcc, r.Rows[0].TernaryAcc)
	}
	return b.String()
}

// AblationTopoRow compares topologies at equal bottleneck bandwidth.
type AblationTopoRow struct {
	Topology string
	Scheme   string
	TTA      float64
	Reached  bool
}

// AblationTopoResult isolates the effect of Fig. 4's chained-switch
// bottleneck versus a flat single-switch network of the same link speed.
type AblationTopoResult struct {
	Rows []AblationTopoRow
}

// RunAblationTopo re-costs recorded all-reduce and PacTrain runs on the
// Fig. 4 topology versus a flat switch at 500 Mbps.
func RunAblationTopo(opt Options) (*AblationTopoResult, error) {
	opt.defaults()
	w := opt.workloads()[0]
	out := &AblationTopoResult{}
	opt.logf("Ablation: topology sensitivity on %s", w.Model)
	bw := 500 * netsim.Mbps
	schemes := []string{"all-reduce", "pactrain-ternary"}
	recs, err := opt.train("ablation-topo", trainJobs("ablation-topo", w, opt, schemes...))
	if err != nil {
		return nil, err
	}
	opt.traceRecost("ablation-topo", map[string]any{"topologies": []any{"fig4", "flat"}})
	for si, scheme := range schemes {
		// Fig. 4 at bw bottleneck.
		fig4TTA, reached4 := recs[si].tta(fig4At(bw), w.TargetAcc)
		out.Rows = append(out.Rows, AblationTopoRow{Topology: "fig4", Scheme: scheme, TTA: fig4TTA, Reached: reached4})
		// Flat switch: every link at bw.
		flat := point{topo: netsim.FlatTopology(recs[si].cfg.World, bw, 1e-4)}
		flatTTA, reachedF := recs[si].tta(flat, w.TargetAcc)
		out.Rows = append(out.Rows, AblationTopoRow{Topology: "flat", Scheme: scheme, TTA: flatTTA, Reached: reachedF})
	}
	return out, nil
}

// Render prints the grid.
func (r *AblationTopoResult) Render() string {
	tb := metrics.NewTable("Ablation — Fig. 4 chained switches vs flat switch (equal link speed)",
		"topology", "scheme", "TTA", "reached")
	for _, row := range r.Rows {
		tb.AddRow(row.Topology, DisplayName(row.Scheme), metrics.FormatSeconds(row.TTA),
			fmt.Sprintf("%v", row.Reached))
	}
	return tb.String()
}
