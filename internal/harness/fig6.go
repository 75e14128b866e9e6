package harness

import (
	"fmt"
	"strings"

	"pactrain/internal/harness/engine"
)

// Fig6Point is one (model, pruning ratio) final-accuracy measurement.
type Fig6Point struct {
	Model    string
	Ratio    float64
	FinalAcc float64
	BestAcc  float64
}

// Fig6Result reproduces Fig. 6: final accuracy versus pruning ratio for the
// four models on the CIFAR-10-like task. The paper's finding: accuracy
// degradation stays minimal below 80% pruning and falls off a cliff at
// 0.9–0.99.
type Fig6Result struct {
	Points []Fig6Point
	Ratios []float64
	Models []string
}

// Fig6Ratios returns the pruning ratios swept along the paper's x-axis
// (the paper samples eleven points; the full preset keeps the seven that
// define the plateau-and-cliff shape, quick mode three).
func Fig6Ratios(quick bool) []float64 {
	if quick {
		return []float64{0.0, 0.5, 0.9}
	}
	return []float64{0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.99}
}

// RunFig6 regenerates Fig. 6 by training the PacTrain configuration to
// completion at each pruning ratio and recording final accuracy.
func RunFig6(opt Options) (*Fig6Result, error) {
	opt.defaults()
	ratios := Fig6Ratios(opt.Quick)
	out := &Fig6Result{Ratios: ratios}
	workloads := opt.workloads()
	opt.logf("Fig. 6: pruning ratio vs final accuracy, %d models × %d ratios",
		len(workloads), len(ratios))

	var jobs []engine.Job
	for _, w := range workloads {
		for _, ratio := range ratios {
			cfg := baseConfig(w, "pactrain", opt)
			cfg.PruneRatio = ratio
			// Final accuracy plateaus before the full TTA budget; a shorter
			// fixed budget keeps the sweep affordable without moving the
			// plateau/cliff shape.
			cfg.Epochs = min(w.Epochs, 8)
			if opt.Quick {
				cfg.Epochs = min(w.Epochs, 6)
			}
			if ratio == 0 {
				// Ratio 0 is the unpruned reference; run the plain scheme.
				cfg.Scheme = "all-reduce"
			}
			jobs = append(jobs, engine.Job{
				Label:  fmt.Sprintf("fig6 %s@%.2f", w.Model, ratio),
				Config: cfg,
			})
		}
	}
	recs, err := opt.train("fig6", jobs)
	if err != nil {
		return nil, err
	}

	for wi, w := range workloads {
		out.Models = append(out.Models, w.Model)
		for ri, ratio := range ratios {
			res := recs[wi*len(ratios)+ri].res
			opt.logf("  %s @ ratio %.2f: final acc %.3f", w.Model, ratio, res.FinalAcc)
			out.Points = append(out.Points, Fig6Point{
				Model: w.Model, Ratio: ratio,
				FinalAcc: res.FinalAcc, BestAcc: res.BestAcc,
			})
		}
	}
	return out, nil
}

// Point fetches one measurement.
func (r *Fig6Result) Point(model string, ratio float64) (Fig6Point, bool) {
	return lookup(r.Points, func(p Fig6Point) bool { return p.Model == model && p.Ratio == ratio })
}

// AccuracyDrop returns final-accuracy loss at the given ratio relative to
// the unpruned run (paper: <2% for ResNet152 up to ratio 0.8).
func (r *Fig6Result) AccuracyDrop(model string, ratio float64) (float64, bool) {
	base, ok1 := r.Point(model, 0)
	at, ok2 := r.Point(model, ratio)
	if !ok1 || !ok2 {
		return 0, false
	}
	return base.FinalAcc - at.FinalAcc, true
}

// Render prints the ratio × model accuracy grid.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	ratios := labels(r.Ratios, func(ratio float64) string { return fmt.Sprintf("%.2f", ratio) })
	b.WriteString(grid("Fig. 6 — Final accuracy vs pruning ratio (CIFAR-10-like)", "pruning ratio", ratios, r.Models,
		func(i, j int) (string, bool) {
			p, ok := r.Point(r.Models[j], r.Ratios[i])
			return fmt.Sprintf("%.3f", p.FinalAcc), ok
		}))
	for _, model := range r.Models {
		if drop, ok := r.AccuracyDrop(model, 0.8); ok {
			fmt.Fprintf(&b, "%s: accuracy drop at ratio 0.8 = %.3f\n", model, drop)
		}
	}
	return b.String()
}
