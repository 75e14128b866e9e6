package harness

import (
	"fmt"
	"strings"

	"pactrain/internal/metrics"
)

// Fig5Series is one accuracy-vs-time curve of Fig. 5.
type Fig5Series struct {
	Scheme     string
	Curve      metrics.Curve
	TTASeconds float64
	Reached    bool
}

// Fig5Result reproduces Fig. 5: ResNet152, 1 Gbps, target accuracy, with
// the speedup ratios the paper quotes (5.64× vs all-reduce, 3.28× vs fp16).
type Fig5Result struct {
	Model     string
	TargetAcc float64
	Series    []Fig5Series

	SpeedupVsAllReduce float64
	SpeedupVsFP16      float64
}

// RunFig5 regenerates Fig. 5. The paper picks ResNet152 on CIFAR-10 at
// 1 Gbps "due to its representative slow convergence"; quick mode uses the
// MLP twin. The accuracy target is the calibrated ResNet152 workload
// target (the paper's 84% threshold re-based to the synthetic task, see
// DESIGN.md §8).
func RunFig5(opt Options) (*Fig5Result, error) {
	opt.defaults()
	w := PaperWorkloads()[2] // ResNet152
	if opt.Quick {
		w = QuickWorkloads()[0]
	}
	schemes := []string{"pactrain-ternary", "topk-0.01", "all-reduce", "fp16", "topk-0.1"}
	out := &Fig5Result{Model: w.Model, TargetAcc: w.TargetAcc}
	opt.logf("Fig. 5: time-to-accuracy curves, %s @ 1 Gbps, target %.0f%%", w.Model, w.TargetAcc*100)

	// baseConfig trains on Fig. 4 at the 1 Gbps bottleneck the figure plots.
	recs, err := opt.train("fig5", trainJobs("fig5", w, opt, schemes...))
	if err != nil {
		return nil, err
	}

	ttas := map[string]float64{}
	for si, scheme := range schemes {
		res := recs[si].res
		tta, reached := res.Curve.TTA(w.TargetAcc)
		ttas[scheme] = tta
		out.Series = append(out.Series, Fig5Series{
			Scheme: scheme, Curve: res.Curve, TTASeconds: tta, Reached: reached,
		})
		opt.logf("  %s / %s: best acc %.3f, TTA %s (reached=%v)",
			w.Model, DisplayName(scheme), res.BestAcc, metrics.FormatSeconds(tta), reached)
	}
	out.SpeedupVsAllReduce = metrics.Speedup(ttas["pactrain-ternary"], ttas["all-reduce"])
	out.SpeedupVsFP16 = metrics.Speedup(ttas["pactrain-ternary"], ttas["fp16"])
	return out, nil
}

// Render prints the per-scheme TTA summary and each curve.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	tb := metrics.NewTable(
		fmt.Sprintf("Fig. 5 — Time-to-accuracy, %s @ 1 Gbps (target %.0f%%)", r.Model, r.TargetAcc*100),
		"scheme", "TTA", "reached", "final acc")
	for _, s := range r.Series {
		tb.AddRow(DisplayName(s.Scheme), metrics.FormatSeconds(s.TTASeconds),
			fmt.Sprintf("%v", s.Reached), fmt.Sprintf("%.3f", s.Curve.FinalAcc()))
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nPacTrain reaches the target %.2f× faster than all-reduce and %.2f× faster than fp16\n",
		r.SpeedupVsAllReduce, r.SpeedupVsFP16)
	fmt.Fprintf(&b, "(paper, real CIFAR-10 testbed: 5.64× and 3.28×)\n\n")
	for _, s := range r.Series {
		b.WriteString(tableFromCurve(fmt.Sprintf("curve: %s", DisplayName(s.Scheme)), &s.Curve).String())
		b.WriteString("\n")
	}
	return b.String()
}
