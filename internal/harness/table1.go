package harness

import (
	"fmt"
	"strings"

	"pactrain/internal/compress"
	"pactrain/internal/harness/engine"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
)

// Table1Row is one method's measured property row. The paper's Table 1
// marks each method's effect on convergence speed, all-reduce
// compatibility, and TTA; here every mark is derived from a measurement or
// a structural property of the implementation rather than asserted.
type Table1Row struct {
	Scheme string
	// ConvOK: iterations-to-target within tolerance of the lossless
	// baseline (✓) or measurably slower / target missed (✗).
	ConvOK bool
	// ConvKnown is false when the workload-dependence the paper marks "?"
	// applies (the scheme reached the target here but is known to be
	// architecture-sensitive — reported as measured).
	IterRatio float64
	// AllReduceCompatible is the transport property of the implementation.
	AllReduceCompatible bool
	// TTAImproved: TTA at the reference bandwidth beats the all-reduce
	// baseline.
	TTAImproved bool
	TTASpeedup  float64
}

// Table1Result is the measured property matrix.
type Table1Result struct {
	Rows      []Table1Row
	Model     string
	Bandwidth float64
}

// Table1Schemes lists the methods of Table 1 (PacTrain plus the six
// comparison systems) as implemented in this repository.
func Table1Schemes() []string {
	return []string{"pactrain-ternary", "thc", "terngrad", "dgc-0.01", "omnireduce", "zen", "topk-0.1", "fp16"}
}

// allReduceCompatible reports the transport property of a scheme.
func allReduceCompatible(scheme string) bool {
	switch scheme {
	case "pactrain", "pactrain-ternary":
		return true // mask-compact payloads sum elementwise
	case "omnireduce":
		return false // streaming aggregator (PS-style)
	case "zen":
		return false // sparse all-gather
	}
	c, err := compress.ByName(scheme, 1)
	if err != nil {
		return false
	}
	return c.Transport() == compress.TransportAllReduce
}

// RunTable1 measures every Table 1 property on a reference workload at a
// bandwidth-constrained link (500 Mbps, the middle of Fig. 3's range).
func RunTable1(opt Options) (*Table1Result, error) {
	opt.defaults()
	eng := opt.engine()
	w := PaperWorkloads()[0] // VGG19, the reference workload
	if opt.Quick {
		w = QuickWorkloads()[0]
	}
	bw := 500 * netsim.Mbps
	out := &Table1Result{Model: w.Model, Bandwidth: bw}
	opt.logf("Table 1: method properties on %s @ %s", w.Model, netsim.FormatBandwidth(bw))

	// Job 0 is the lossless baseline; the rest follow Table1Schemes order.
	jobs := []engine.Job{trainJob("table1", w, "all-reduce", opt)}
	for _, scheme := range Table1Schemes() {
		jobs = append(jobs, trainJob("table1", w, scheme, opt))
	}
	results, err := eng.RunAll(jobs)
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	opt.traceRuns(jobs, results)
	opt.traceRecost("table1", map[string]any{"bandwidth": netsim.FormatBandwidth(bw), "runs": len(jobs)})

	baseRes, baseCfg := results[0], jobs[0].Config
	baseIters, baseReached := baseRes.Curve.IterTo(w.TargetAcc)
	baseTTA, _ := recostTTA(baseRes, &baseCfg, bw, w.TargetAcc)
	if !baseReached {
		opt.logf("  warning: baseline did not reach target %.2f; verdicts use end-of-run state", w.TargetAcc)
		baseIters = baseRes.Iterations
	}

	for si, scheme := range Table1Schemes() {
		res, cfg := results[si+1], jobs[si+1].Config
		iters, reached := res.Curve.IterTo(w.TargetAcc)
		tta, ttaReached := recostTTA(res, &cfg, bw, w.TargetAcc)
		row := Table1Row{
			Scheme:              scheme,
			AllReduceCompatible: allReduceCompatible(scheme),
		}
		if reached && baseIters > 0 {
			row.IterRatio = float64(iters) / float64(baseIters)
			row.ConvOK = row.IterRatio <= 1.3
		} else {
			row.IterRatio = 0
			row.ConvOK = false
		}
		row.TTAImproved = ttaReached && tta < baseTTA
		row.TTASpeedup = metrics.Speedup(tta, baseTTA)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func mark(b bool) string {
	if b {
		return "✓"
	}
	return "✗"
}

// Render prints the measured Table 1.
func (r *Table1Result) Render() string {
	var b strings.Builder
	tb := metrics.NewTable(
		fmt.Sprintf("Table 1 — Measured impact of acceleration methods (%s @ %s)", r.Model, netsim.FormatBandwidth(r.Bandwidth)),
		"Method", "Conv. Speed", "Compatibility", "TTA", "iter ratio", "TTA speedup")
	for _, row := range r.Rows {
		iterStr := "-"
		if row.IterRatio > 0 {
			iterStr = fmt.Sprintf("%.2f×", row.IterRatio)
		}
		tb.AddRow(DisplayName(row.Scheme), mark(row.ConvOK), mark(row.AllReduceCompatible),
			mark(row.TTAImproved), iterStr, fmt.Sprintf("%.2f×", row.TTASpeedup))
	}
	b.WriteString(tb.String())
	b.WriteString("\nPaper's Table 1 (claimed): PacTrain ✓✓✓ · THC ✓✗✓ · Terngrad ✗✓? · DGC ✗✓? · OmniReduce ✓✗✓ · Zen ✓✗✓\n")
	return b.String()
}

// VerifyAgainstPaper checks the structural (transport) column against the
// paper's claims; measured columns are workload-dependent and reported, not
// asserted.
func (r *Table1Result) VerifyAgainstPaper() error {
	// Note: the paper's §I text ("most schemes (e.g., DGC, OmniReduce, and
	// Zen) are not compatible with all-reduce") and its Table 1 symbols
	// disagree on DGC; we follow the text and the mechanism (DGC exchanges
	// per-worker top-k selections, which requires all-gather).
	want := map[string]bool{
		"pactrain-ternary": true,
		"thc":              false,
		"terngrad":         true,
		"dgc-0.01":         false,
		"omnireduce":       false,
		"zen":              false,
		"topk-0.1":         false,
		"fp16":             true,
	}
	for _, row := range r.Rows {
		if expected, ok := want[row.Scheme]; ok && row.AllReduceCompatible != expected {
			return fmt.Errorf("table1: %s compatibility %v, paper claims %v",
				row.Scheme, row.AllReduceCompatible, expected)
		}
	}
	return nil
}
