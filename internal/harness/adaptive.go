package harness

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"pactrain/internal/adaptive"
	"pactrain/internal/core"
	"pactrain/internal/harness/engine"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
)

// AdaptiveSchemeName labels the online controller's row in the adaptive
// experiment; static format baselines are labelled StaticSchemeName(f).
const AdaptiveSchemeName = core.SchemeAdaptive

// StaticSchemeName labels a single-format baseline row: the adaptive
// pipeline with its candidate set pinned to one wire format, which is the
// apples-to-apples static counterpart (same pruning, same GSE, same Mask
// Tracker — only the format choice is frozen).
func StaticSchemeName(format string) string { return "static:" + format }

// AdaptiveCell is one (fabric, scheme, bandwidth) TTA measurement of the
// adaptive experiment.
type AdaptiveCell struct {
	// Fabric is the operating environment: "varbw" (Fig. 4 WAN with the
	// oscillating bottleneck trace) or "two-rack" (two clusters behind one
	// bottleneck link).
	Fabric       string
	Scheme       string
	BandwidthBps float64
	TTASeconds   float64
	Reached      bool
	FinalAcc     float64
	// Decisions summarizes the controller's format choices for adaptive
	// cells ("mask-compact-ternary:70 index-list:31"); empty for statics.
	Decisions string `json:",omitempty"`
	// Switches counts completed format switches for adaptive cells.
	Switches int `json:",omitempty"`
}

// AdaptiveExpResult is the adaptive-controller experiment: the online
// cost-model controller against every static wire format, across bandwidth
// operating points on two WAN-latency fabrics. The headline invariant —
// asserted by TestRunAdaptiveQuick — is that the adaptive scheme's TTA is
// at or below the best static format at every operating point: the
// controller matches whichever format the regime favors without being told
// which regime it is in.
type AdaptiveExpResult struct {
	Cells   []AdaptiveCell
	Model   string
	Formats []string
	// VarBWBandwidths and TwoRackBandwidths are the operating points of the
	// two fabric parts.
	VarBWBandwidths   []float64
	TwoRackBandwidths []float64
	// LatencySec is the per-link one-way latency of both fabrics — WAN
	// scale, which is what makes the format ranking bandwidth-dependent
	// (the index-list's fewer ring steps matter only when latency counts).
	LatencySec float64
	// DipScale and PeriodsSec describe the varbw part's oscillation (one
	// period per varbw bandwidth, sized from the ternary baseline's run).
	DipScale   float64
	PeriodsSec []float64
}

// adaptiveWANLatency is the per-link latency of the experiment's fabrics.
// At Fig. 4's LAN default (100 µs) the byte volume dominates every format
// quote and mask-compact-ternary wins everywhere; at WAN latency the
// latency term makes the index-list all-gather (half the ring steps)
// overtake it when bandwidth is plentiful — the regime dependence the
// controller exists to exploit.
const adaptiveWANLatency = 5e-3

// adaptiveTwoRackBandwidths lists the two-rack part's operating points.
func adaptiveTwoRackBandwidths() []float64 {
	return []float64{100 * netsim.Mbps, 1 * netsim.Gbps}
}

// oscillatingTraces builds the alternating full/dip bandwidth traces for
// every inter-switch link of a topology (the varbw ablation and the adaptive
// experiment's oscillating fabric). The links share one segment slice.
func oscillatingTraces(topo *netsim.Topology, period, dip float64) []*netsim.BandwidthTrace {
	// Alternate full/dip windows long enough to outlast any run.
	segs := make([]netsim.TraceSegment, 0, 4097)
	for k := 0; k < 4096; k++ {
		scale := 1.0
		if k%2 == 1 {
			scale = dip
		}
		segs = append(segs, netsim.TraceSegment{UntilSec: float64(k+1) * period, Scale: scale})
	}
	segs = append(segs, netsim.TraceSegment{UntilSec: math.Inf(1), Scale: 1})
	var traces []*netsim.BandwidthTrace
	for _, li := range topo.InterSwitchLinks() {
		traces = append(traces, &netsim.BandwidthTrace{LinkIndex: li, Segments: segs})
	}
	return traces
}

// RunAdaptive regenerates the adaptive-controller experiment.
//
// The four static baselines train once each on the default fabric: a
// single-candidate controller makes fabric-independent decisions
// (Config.FabricSensitive is false), so their recorded logs re-cost
// exactly onto every operating point, like any static scheme. The adaptive
// cells are the opposite — the controller's decisions consult the live
// fabric, so each operating point trains its own run with the fabric (and
// trace) in the config; re-costing an adaptive log across bandwidths would
// replay decisions the controller would not have made there (DESIGN.md §8).
func RunAdaptive(opt Options) (*AdaptiveExpResult, error) {
	opt.defaults()
	w := opt.workloads()[0]
	out := &AdaptiveExpResult{
		Model:             w.Model,
		Formats:           adaptive.Formats(),
		VarBWBandwidths:   Fig3Bandwidths(),
		TwoRackBandwidths: adaptiveTwoRackBandwidths(),
		LatencySec:        adaptiveWANLatency,
		DipScale:          0.1,
	}
	opt.logf("Adaptive: controller vs %d static formats × %d operating points on %s (WAN latency %s)",
		len(out.Formats), len(out.VarBWBandwidths)+len(out.TwoRackBandwidths), w.Model,
		metrics.FormatSeconds(out.LatencySec))

	// Static format baselines: train once, re-cost everywhere.
	var staticJobs []engine.Job
	for _, f := range out.Formats {
		cfg := baseConfig(w, core.SchemeAdaptive, opt)
		cfg.AdaptCandidates = []string{f}
		staticJobs = append(staticJobs, engine.Job{
			Label:  fmt.Sprintf("adaptive %s/%s", w.Model, StaticSchemeName(f)),
			Config: cfg,
		})
	}
	statics, err := opt.train("adaptive statics", staticJobs)
	if err != nil {
		return nil, err
	}

	// Operating-point fabrics. The varbw oscillation period is sized per
	// bandwidth from the ternary baseline re-costed on the untraced WAN
	// fabric, so every run sees several dips before finishing.
	tern := statics[slices.Index(out.Formats, adaptive.FormatCompactTernary)]
	type cellPoint struct {
		fabric string
		bw     float64
		point
	}
	var points []cellPoint
	for _, bw := range out.VarBWBandwidths {
		topo := netsim.Fig4Topology(netsim.Fig4Options{
			BottleneckBps: bw, LatencySec: out.LatencySec,
		})
		cum := tern.price(point{topo: topo})
		period := cum[len(cum)-1] / 6
		if period <= 0 {
			period = 1
		}
		out.PeriodsSec = append(out.PeriodsSec, period)
		points = append(points, cellPoint{"varbw", bw,
			point{topo: topo, traces: oscillatingTraces(topo, period, out.DipScale)}})
	}
	for _, bw := range out.TwoRackBandwidths {
		topo := netsim.TwoRackTopology(netsim.TwoRackOptions{
			Hosts: opt.World, BottleneckBps: bw, EdgeBps: 10 * netsim.Gbps,
			LatencySec: out.LatencySec,
		})
		points = append(points, cellPoint{"two-rack", bw, point{topo: topo}})
	}

	// Adaptive cells: one training per operating point, fabric in config.
	var adaptiveJobs []engine.Job
	for _, p := range points {
		cfg := baseConfig(w, core.SchemeAdaptive, opt)
		cfg.Topology = p.topo
		cfg.Traces = p.traces
		adaptiveJobs = append(adaptiveJobs, engine.Job{
			Label:  fmt.Sprintf("adaptive %s/%s@%s", w.Model, p.fabric, netsim.FormatBandwidth(p.bw)),
			Config: cfg,
		})
	}
	// The re-cost mark goes ahead of the cells' audit marks, which the
	// train step drops. The adaptive cells carry their operating-point
	// fabric in the config (Topology + Traces), so the train step traces and
	// audits each on its recorded fabric — the only fabric an adaptive log
	// replays exactly, and where its counterfactual quotes are truthful
	// (DESIGN.md §8).
	opt.traceRecost("adaptive", map[string]any{"points": len(points), "formats": len(out.Formats)})
	cells, err := opt.train("adaptive cells", adaptiveJobs)
	if err != nil {
		return nil, err
	}

	for pi, p := range points {
		for fi, f := range out.Formats {
			tta, reached := statics[fi].tta(p.point, w.TargetAcc)
			out.Cells = append(out.Cells, AdaptiveCell{
				Fabric: p.fabric, Scheme: StaticSchemeName(f), BandwidthBps: p.bw,
				TTASeconds: tta, Reached: reached, FinalAcc: statics[fi].res.FinalAcc,
			})
		}
		res := cells[pi].res
		tta, reached := res.Curve.TTA(w.TargetAcc)
		out.Cells = append(out.Cells, AdaptiveCell{
			Fabric: p.fabric, Scheme: AdaptiveSchemeName, BandwidthBps: p.bw,
			TTASeconds: tta, Reached: reached, FinalAcc: res.FinalAcc,
			Decisions: adaptive.SummarizeCounts(res.AdaptiveDecisions),
			Switches:  res.AdaptiveSwitches,
		})
	}
	return out, nil
}

// Cell fetches one grid entry.
func (r *AdaptiveExpResult) Cell(fabric, scheme string, bw float64) (AdaptiveCell, bool) {
	return lookup(r.Cells, func(c AdaptiveCell) bool {
		return c.Fabric == fabric && c.Scheme == scheme && c.BandwidthBps == bw
	})
}

// BestStaticTTA returns the lowest static-format TTA at an operating
// point. Formats that never reached the target are skipped: their
// TTASeconds is a truncated end-of-run lower bound, not a time-to-accuracy
// it would be meaningful to call "best".
func (r *AdaptiveExpResult) BestStaticTTA(fabric string, bw float64) (float64, bool) {
	best, found := math.Inf(1), false
	for _, f := range r.Formats {
		if c, ok := r.Cell(fabric, StaticSchemeName(f), bw); ok && c.Reached && c.TTASeconds < best {
			best, found = c.TTASeconds, true
		}
	}
	return best, found
}

// bandwidths returns the operating points of one fabric part.
func (r *AdaptiveExpResult) bandwidths(fabric string) []float64 {
	if fabric == "varbw" {
		return r.VarBWBandwidths
	}
	return r.TwoRackBandwidths
}

// Render prints one TTA table per fabric part plus the controller's
// decision log summary.
func (r *AdaptiveExpResult) Render() string {
	var b strings.Builder
	parts := []struct{ id, title string }{
		{"varbw", fmt.Sprintf("Fig. 4 WAN, bottleneck oscillating 1.0↔%.1f×", r.DipScale)},
		{"two-rack", "two-rack WAN, single bottleneck link"},
	}
	schemes := append([]string{AdaptiveSchemeName}, labels(r.Formats, StaticSchemeName)...)
	for _, part := range parts {
		bws := r.bandwidths(part.id)
		title := fmt.Sprintf("Adaptive — TTA on %s (%s; %s/link latency; best static vs controller)",
			part.title, r.Model, metrics.FormatSeconds(r.LatencySec))
		b.WriteString(grid(title, "scheme \\ bandwidth", schemes, labels(bws, netsim.FormatBandwidth),
			func(i, j int) (string, bool) {
				c, ok := r.Cell(part.id, schemes[i], bws[j])
				cell := flagMissed(metrics.FormatSeconds(c.TTASeconds), c.Reached)
				if best, found := r.BestStaticTTA(part.id, bws[j]); found && schemes[i] == AdaptiveSchemeName {
					cell += fmt.Sprintf(" (%.2f× best static)", metrics.Speedup(c.TTASeconds, best))
				}
				return cell, ok
			}))
		b.WriteString("\n")
	}
	b.WriteString("controller decisions (rounds per format, completed switches):\n")
	for _, part := range parts {
		for _, bw := range r.bandwidths(part.id) {
			if c, ok := r.Cell(part.id, AdaptiveSchemeName, bw); ok {
				fmt.Fprintf(&b, "  %-9s %-9s %s, %d switches\n",
					part.id, netsim.FormatBandwidth(bw), c.Decisions, c.Switches)
			}
		}
	}
	return b.String()
}
