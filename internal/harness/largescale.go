package harness

import (
	"fmt"
	"strings"

	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/ddp"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
)

// The largescale experiment prices PacTrain at the cluster sizes the paper's
// 8-worker testbed cannot reach: a 64-rack / 4,096-rank job on a two-level
// racked fabric, with one thermally degraded rack. Training a 4,096-way lite
// twin is neither feasible nor needed — the question at this scale is purely
// a pricing one (what does each scheme's steady-state wire traffic cost on a
// hierarchical collective, and how much does a slow rack hurt?), so the
// experiment synthesizes each scheme's steady-state operation log directly
// from its wire formats and replays it on per-rank event timelines with
// memoized op pricing (opCoster). This is the one path that exercises every
// cluster-scale mechanism at once: the racked topology's rooted path index,
// the hierarchical collective over 64 racks of routes resolved once per
// call, the timeline composer's homogeneous and per-bucket barrier
// shortcuts, and signature memoization — without them the grid takes
// minutes; with them, a fraction of a second.

// LargeScaleCell is one (scheme, severity) cell of the grid.
type LargeScaleCell struct {
	Scheme string
	// Severity is the slow rack's compute-time multiplier (1 = uniform).
	Severity float64
	// IterSeconds is the steady-state simulated iteration time (warm-up
	// iteration excluded).
	IterSeconds float64
	// Degradation is IterSeconds / IterSeconds(severity 1) for the scheme.
	Degradation float64
}

// LargeScaleResult is the cluster-scale pricing grid.
type LargeScaleResult struct {
	Cells      []LargeScaleCell
	Schemes    []string
	Severities []float64
	// Racks × HostsPerRack = World ranks on the racked fabric.
	Racks, HostsPerRack, World int
	// Iterations is the synthesized log length; Params the model size whose
	// buckets the log carries.
	Iterations int
	Params     int
	Collective string
}

// LargeScaleSchemes lists the priced schemes: the dense baseline, the
// cheapest dense compression, and PacTrain's steady state.
func LargeScaleSchemes() []string {
	return []string{"all-reduce", "fp16", "pactrain-ternary"}
}

// LargeScaleSeverities lists the slow rack's compute multipliers.
func LargeScaleSeverities() []float64 { return []float64{1, 2, 4} }

// largeScaleLog synthesizes a scheme's steady-state communication log over
// the given bucket geometry: what the trainer's hooks record once PacTrain's
// masks are stable (DESIGN.md §4), with iteration 0 modelling the warm-up
// (full-precision sync plus the bitmap re-share that establishes the mask).
// Dense schemes record the same op every iteration, so their warm-up is
// identical to steady state.
func largeScaleLog(scheme string, buckets []int, iters int) *core.CommLog {
	log := &core.CommLog{}
	log.SetBuckets(buckets)
	for k := 0; k < iters; k++ {
		log.StartIter()
		for b, n := range buckets {
			switch scheme {
			case "all-reduce":
				log.Record(core.CommOp{Kind: core.OpAllReduce, Elements: n,
					Wire: collective.WireFP32, Bucket: b})
			case "fp16":
				log.Record(core.CommOp{Kind: core.OpAllReduce, Elements: n,
					Wire: collective.WireFP16, Bucket: b})
			case "pactrain-ternary":
				if k == 0 {
					log.Record(core.CommOp{Kind: core.OpAllReduce, Elements: n,
						Wire: collective.WireFP32, Bucket: b})
					log.Record(core.CommOp{Kind: core.OpBitmapBroadcast, Elements: n,
						Bucket: b})
					continue
				}
				// Stable steady state: mask-compact ternary all-reduce over
				// the retained coordinates (50% pruning → half the elements,
				// widened to int8 so ring partial sums don't overflow —
				// exactly MaskCompact.Wire()).
				log.Record(core.CommOp{Kind: core.OpAllReduce, Elements: n / 2,
					Wire: collective.WireInt8, Bucket: b})
			default:
				panic("harness: largescale has no log synthesizer for scheme " + scheme)
			}
		}
	}
	return log
}

// largeScaleBuckets is a 25.5M-parameter bucket geometry (ResNet50-class):
// ten uniform 2.5M-element DDP buckets plus a 0.5M tail. Uniform buckets
// are deliberate — they keep the grid's distinct cost signatures (and hence
// live hierarchical pricings, ~500k link transfers each at 4,096 ranks) to
// a handful per scheme.
func largeScaleBuckets() []int {
	buckets := make([]int, 11)
	for i := range buckets {
		buckets[i] = 2_500_000
	}
	buckets[10] = 500_000
	return buckets
}

// largeScaleCompute prices compute on a datacenter accelerator (A100-class
// tensor throughput at realistic utilization) with a per-rank batch of 256
// — heavy enough that a 4× slow rack is visible next to compressed traffic,
// light enough that dense traffic still dominates it.
func largeScaleCompute() ddp.ComputeModel {
	return ddp.ComputeModel{
		FLOPsPerSample: 4_100_000_000, // ResNet50 forward
		DeviceFLOPS:    125e12,
		Efficiency:     0.35,
		BackwardFactor: 2,
	}
}

const largeScaleIters = 24

// RunLargeScale prices the grid. Quick mode shrinks the fabric to
// 32 racks × 32 hosts (1,024 ranks); the full grid runs 64 × 64 (4,096).
func RunLargeScale(opt Options) (*LargeScaleResult, error) {
	opt.defaults()
	racks, hosts := 64, 64
	if opt.Quick {
		racks, hosts = 32, 32
	}
	out := &LargeScaleResult{
		Schemes:    LargeScaleSchemes(),
		Severities: LargeScaleSeverities(),
		Racks:      racks, HostsPerRack: hosts, World: racks * hosts,
		Iterations: largeScaleIters,
		Collective: "hierarchical",
	}
	buckets := largeScaleBuckets()
	for _, n := range buckets {
		out.Params += n
	}
	opt.logf("LargeScale: %d schemes × %d severities at %d ranks (%d racks × %d hosts, hierarchical)",
		len(out.Schemes), len(out.Severities), out.World, racks, hosts)
	// Deliberately untraced: a span replay at 4,096 ranks emits on the
	// order of a million events per cell, which no viewer loads. The cells
	// leave a harness mark instead; use the stragglers experiment for a
	// viewable per-rank picture of the same straggler mechanics.
	opt.traceRecost("largescale", map[string]any{"world": out.World})

	// One fabric and one pricer serve all nine cells, so the hierarchy's
	// racks, leaders and routes are resolved once. The memo is cleared per
	// cell: no memoized duration crosses cells.
	fabric := netsim.NewFabric(netsim.RackedTopology(netsim.RackedOptions{Racks: racks, HostsPerRack: hosts}))
	coster := newOpCoster(collective.MustAlgorithm(out.Collective), fabric, fabric.Topo.Hosts(), true)
	for _, scheme := range out.Schemes {
		res := &core.Result{Scheme: scheme, CommLog: largeScaleLog(scheme, buckets, largeScaleIters)}
		uniformIter := 0.0
		for _, sev := range out.Severities {
			cfg := core.Config{
				World:      out.World,
				BatchSize:  256,
				Compute:    largeScaleCompute(),
				Overlap:    ddp.OverlapBackward,
				Collective: out.Collective,
			}
			if sev != 1 {
				cfg.RankCompute = ddp.RankCompute{
					Multipliers: netsim.OneSlowRack(racks, hosts, sev),
				}
			}
			clear(coster.memo)
			cum := core.Replay(&cfg, res.CommLog, coster.cost, nil)
			// Steady state excludes the warm-up iteration (PacTrain's full
			// sync + bitmap re-share).
			iter := (cum[len(cum)-1] - cum[1]) / float64(largeScaleIters-1)
			if sev == 1 {
				uniformIter = iter
			}
			out.Cells = append(out.Cells, LargeScaleCell{
				Scheme: scheme, Severity: sev, IterSeconds: iter,
				Degradation: metrics.RelativeTTA(iter, uniformIter),
			})
		}
	}
	return out, nil
}

// Cell fetches one grid entry.
func (r *LargeScaleResult) Cell(scheme string, sev float64) (LargeScaleCell, bool) {
	return lookup(r.Cells, func(c LargeScaleCell) bool { return c.Scheme == scheme && c.Severity == sev })
}

// Render prints the grid (rows = schemes, columns = slow-rack severities,
// cells = steady-state iteration time with degradation vs the uniform
// cluster) plus the two headline observations.
func (r *LargeScaleResult) Render() string {
	title := fmt.Sprintf("LargeScale — steady-state iteration time at %d ranks (%d racks × %d, hierarchical, one slow rack; ×degradation vs uniform)",
		r.World, r.Racks, r.HostsPerRack)
	severities := labels(r.Severities, func(sev float64) string { return fmt.Sprintf("%g×", sev) })
	var b strings.Builder
	b.WriteString(grid(title, "scheme \\ slow-rack ×", labels(r.Schemes, DisplayName), severities,
		func(i, j int) (string, bool) {
			c, ok := r.Cell(r.Schemes[i], r.Severities[j])
			return fmt.Sprintf("%s (%.3f×)", metrics.FormatSeconds(c.IterSeconds), c.Degradation), ok
		}))
	pac, okP := r.Cell("pactrain-ternary", 1)
	dense, okD := r.Cell("all-reduce", 1)
	if okP && okD {
		fmt.Fprintf(&b, "Uniform cluster: PacTrain %s/iter vs dense %s/iter (%.2f× faster at %d ranks)\n",
			metrics.FormatSeconds(pac.IterSeconds), metrics.FormatSeconds(dense.IterSeconds),
			metrics.Speedup(pac.IterSeconds, dense.IterSeconds), r.World)
	}
	worst := r.Severities[len(r.Severities)-1]
	pacW, okP := r.Cell("pactrain-ternary", worst)
	denseW, okD := r.Cell("all-reduce", worst)
	if okP && okD {
		fmt.Fprintf(&b, "%g× slow rack: degradation %.3f× (PacTrain) vs %.3f× (dense) — compression exposes stragglers that dense traffic hides\n",
			worst, pacW.Degradation, denseW.Degradation)
	}
	return b.String()
}
