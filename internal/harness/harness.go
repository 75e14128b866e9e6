// Package harness drives the experiments that regenerate every table and
// figure of the PacTrain paper's evaluation (§IV): the method-property
// matrix (Table 1), end-to-end relative TTA across bandwidths (Fig. 3),
// accuracy-vs-time curves for ResNet152 (Fig. 5), the pruning-ratio sweep
// (Fig. 6), and the design-choice ablations listed in DESIGN.md §3.
//
// Each experiment trains lite-twin models for real and costs communication
// through the simulated Fig. 4 fabric. Because the convergence trajectory
// is bandwidth-independent (the synchronization is bit-exact regardless of
// link speed), bandwidth sweeps train once per (model, scheme) pair and
// re-cost the recorded per-iteration communication under each bandwidth —
// producing identical results to re-running at a fraction of the wall
// time.
//
// Every experiment expresses its grid as declarative jobs submitted to the
// shared scheduler in internal/harness/engine, which deduplicates identical
// (model, scheme, seed) trainings across experiments, bounds parallelism,
// and optionally caches results on disk (Options.Parallelism, CacheDir,
// Engine). Jobs are submitted and assembled in a fixed order, so reports
// are byte-identical to the historical serial path at any parallelism.
// Every experiment trains through one step (Options.train), re-prices
// through one function (recording.price at an operating point) and draws
// its grid tables through one renderer (grid).
package harness

import (
	"fmt"
	"io"

	"pactrain/internal/audit"
	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/harness/engine"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
	"pactrain/internal/obs"
)

// Workload couples a paper model with its calibrated training recipe and
// target accuracy. Targets are per-model, as in the paper's TTA definition
// (Fig. 5 names 84% for ResNet152), and sit comfortably below what the
// *pruned* twin reaches — the paper's own targets likewise sit well under
// the models' final accuracies. Width sets the lite twin's base channel
// count: wide enough that 50% pruning costs little accuracy, mirroring the
// overcapacity of the real 11M–144M-parameter models (DESIGN.md §1).
type Workload struct {
	Model     string
	LR        float64
	TargetAcc float64
	Epochs    int
	Width     int
}

// PaperWorkloads lists the four evaluation models with recipes calibrated
// on the synthetic task (see DESIGN.md §1 on the substitution).
func PaperWorkloads() []Workload {
	return []Workload{
		{Model: "VGG19", LR: 0.05, TargetAcc: 0.80, Epochs: 10, Width: 12},
		{Model: "ResNet18", LR: 0.10, TargetAcc: 0.60, Epochs: 12, Width: 10},
		{Model: "ResNet152", LR: 0.10, TargetAcc: 0.68, Epochs: 12, Width: 10},
		{Model: "ViT-Base-16", LR: 0.05, TargetAcc: 0.50, Epochs: 12, Width: 12},
	}
}

// QuickWorkloads is a fast subset for smoke runs: the MLP twin stands in
// for every profile so a full experiment finishes in seconds.
func QuickWorkloads() []Workload {
	return []Workload{
		{Model: "MLP", LR: 0.05, TargetAcc: 0.70, Epochs: 6, Width: 8},
	}
}

// Options configures an experiment run.
type Options struct {
	// Quick substitutes the fast workload set and smaller sweeps.
	Quick bool
	// World is the worker count (default 8, the paper's testbed size).
	World int
	// Samples is the synthetic training-set size (default 768, or 320 in
	// Quick mode).
	Samples int
	// Seed drives all randomness.
	Seed uint64
	// Collective selects the collective algorithm every job config trains
	// and re-costs under ("ring", "tree", "hierarchical"; empty = ring, the
	// paper's flat ring and the historical behavior). "ring" normalizes to
	// empty so both spellings share cache keys and coalesce in the service.
	Collective string
	// Overlap selects the backward-overlap model every job config trains
	// and re-costs under ("none", "backward"; empty = none, the historical
	// serialized clock). "none" normalizes to empty so both spellings share
	// cache keys and coalesce in the service. "backward" prices each DDP
	// bucket's collective at its per-rank gradient-ready barrier (DESIGN.md
	// §9).
	Overlap string
	// Log receives progress lines; nil discards them.
	Log io.Writer

	// Parallelism bounds concurrent training jobs (default 1, the serial
	// pre-engine behavior). Reports are byte-identical at any setting: jobs
	// are keyed deterministically and assembled in submission order.
	Parallelism int
	// CacheDir enables the on-disk result cache when non-empty, so repeated
	// invocations re-cost recorded runs instead of re-training them.
	CacheDir string
	// Engine, when non-nil, is the shared scheduler to submit jobs to;
	// sharing one engine across experiments deduplicates identical
	// (model, scheme, seed) trainings between them. When nil, each
	// experiment builds a private engine from Parallelism/CacheDir/Log.
	Engine *engine.Engine

	// Tracer, when non-nil, receives a per-rank span replay of every run an
	// experiment trains or re-costs (trace.go). Observation-only: reports
	// and fingerprints are byte-identical with or without it, and serve's
	// coalescing key ignores it (pointer field, like Engine).
	Tracer *obs.Tracer

	// Auditor, when non-nil, collects a counterfactual decision audit of
	// every controller-driven run an experiment trains (audit.go; currently
	// the adaptive experiment's cells and static baselines). Observation-only
	// like Tracer: reports and fingerprints are byte-identical with or
	// without it, and serve's coalescing key ignores it.
	Auditor *audit.Collector
	// AuditStaleness ages the audit's controller-view pricing by this many
	// seconds (audit.Options.StalenessSec): 0 prices at launch, where the
	// calibration error is exactly zero on the recorded fabric.
	AuditStaleness float64
}

// Normalized returns the options with every default applied — the
// canonical form under which two Options describe the same experiment
// grid. The serve subsystem coalesces identical submissions by comparing
// the value fields (Quick, World, Samples, Seed, Collective, Overlap) of
// normalized options.
func (o Options) Normalized() Options {
	o.defaults()
	return o
}

// defaults applies every default, the private engine of a standalone
// experiment call included (Options.Engine nil): built once, so every train
// step of the call shares its dedup table.
func (o *Options) defaults() {
	if o.World == 0 {
		o.World = 8
	}
	if o.Samples == 0 {
		if o.Quick {
			o.Samples = 320
		} else {
			o.Samples = 768
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Collective == collective.DefaultAlgorithm {
		o.Collective = ""
	}
	if o.Overlap == ddp.OverlapNone.String() {
		o.Overlap = ""
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	if o.Engine == nil {
		o.Engine = engine.New(engine.Options{
			Parallelism: o.Parallelism,
			CacheDir:    o.CacheDir,
			Log:         o.Log,
		})
	}
}

// NewEngine builds the scheduler an Options describes. The experiment
// drivers (cmd/pactrain-bench, tests) construct one and set Options.Engine
// so every experiment in the process shares its dedup table and cache.
func NewEngine(opt Options) *engine.Engine {
	opt.Engine = nil
	opt.defaults()
	return opt.Engine
}

func (o *Options) logf(format string, args ...any) {
	fmt.Fprintf(o.Log, format+"\n", args...)
}

func (o *Options) workloads() []Workload {
	if o.Quick {
		return QuickWorkloads()
	}
	return PaperWorkloads()
}

// baseConfig builds the core training configuration for a workload/scheme
// pair. Batch sizes divide the shards exactly, so every iteration has the
// same batch size.
func baseConfig(w Workload, scheme string, opt Options) core.Config {
	cfg := core.DefaultConfig(w.Model, scheme)
	cfg.World = opt.World
	if w.Width > 0 {
		cfg.Lite.Width = w.Width
	}
	cfg.Data = data.CIFAR10Like(opt.Samples, 11+opt.Seed)
	cfg.TestSamples = 200
	cfg.Epochs = w.Epochs
	if opt.Quick {
		cfg.Epochs = min(w.Epochs, 6)
	}
	cfg.BatchSize = 8
	// Round the dataset up so every shard divides into full batches. Replay
	// prices a ragged final batch at its real size, so re-costing no longer
	// depends on this; the padding stays because odd -samples values have
	// always been fingerprinted and reported at the padded count. The
	// presets (768/320/test sizes) already divide.
	chunk := cfg.World * cfg.BatchSize
	cfg.Data.Samples = ((cfg.Data.Samples + chunk - 1) / chunk) * chunk
	cfg.LR = w.LR
	cfg.TargetAcc = w.TargetAcc
	cfg.Seed = opt.Seed
	cfg.Collective = opt.Collective
	// Options.Overlap was validated by every public entry point (the CLIs
	// exit 2, the service rejects with 400); MustOverlap flags programmer
	// error on the direct-API path.
	cfg.Overlap = ddp.MustOverlap(opt.Overlap)
	cfg.BottleneckBps = 1 * netsim.Gbps
	// Evaluate twice per epoch so TTA crossings resolve at sub-epoch
	// granularity.
	itersPerEpoch := cfg.Data.Samples / (cfg.World * cfg.BatchSize)
	if itersPerEpoch > 1 {
		cfg.EvalEvery = itersPerEpoch / 2
	}
	return cfg
}

// Fig3Schemes lists the aggregation schemes of Fig. 3 in plot order. The
// paper's "PacTrain" bar is the pruning+ternary configuration of §III-D.
func Fig3Schemes() []string {
	return []string{"all-reduce", "fp16", "topk-0.1", "topk-0.01", "pactrain-ternary"}
}

// DisplayName maps scheme identifiers to the labels used in the paper's
// figures.
func DisplayName(scheme string) string {
	switch scheme {
	case "pactrain-ternary", "pactrain":
		return "PacTrain"
	case "terngrad":
		return "Terngrad"
	case "thc":
		return "THC"
	case "dgc-0.01":
		return "DGC"
	case "omnireduce":
		return "OmniReduce"
	case "zen":
		return "Zen"
	}
	return scheme
}

// trainJobs builds the engine jobs for one workload trained under each
// scheme, with communication recording.
func trainJobs(exp string, w Workload, opt Options, schemes ...string) []engine.Job {
	jobs := make([]engine.Job, len(schemes))
	for i, scheme := range schemes {
		jobs[i] = engine.Job{
			Label:  fmt.Sprintf("%s %s/%s", exp, w.Model, DisplayName(scheme)),
			Config: baseConfig(w, scheme, opt),
		}
	}
	return jobs
}

// recording is one run the harness re-prices: the config it trained (or was
// synthesized) under and its result, recorded communication log included.
type recording struct {
	cfg core.Config
	res *core.Result
}

// train is every experiment's one train step: it runs the jobs on the
// engine and returns their recordings in submission order. It traces every
// run into Options.Tracer and audits every controller-driven run into
// Options.Auditor, each deduplicated by config fingerprint (a run shared
// between experiments, or repeated within one, is observed once, under its
// first label — deterministic because grids run in submission order). Each
// audit that collects a report drops an "audit" mark carrying its regret
// headline into the trace.
func (o *Options) train(exp string, jobs []engine.Job) ([]recording, error) {
	results, err := o.Engine.RunAll(jobs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", exp, err)
	}
	recs := make([]recording, len(jobs))
	for i, job := range jobs {
		recs[i] = recording{job.Config, results[i]}
		if err := TraceRun(o.Tracer, job.Label, job.Config, results[i]); err != nil {
			o.logf("%v", err)
		}
		// Only controller configs decide anything: auditing a static run
		// would replay its whole log for an empty ledger.
		if o.Auditor == nil || job.Config.Scheme != core.SchemeAdaptive {
			continue
		}
		rep, err := AuditRun(job.Label, job.Config, results[i], audit.Options{StalenessSec: o.AuditStaleness})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp, err)
		}
		if rep.DecidedRounds == 0 || !o.Auditor.Add(rep) || o.Tracer == nil {
			continue
		}
		o.Tracer.AddMark("audit", map[string]any{
			"label":             rep.Label,
			"rounds":            rep.DecidedRounds,
			"oracle_regret_sec": rep.OracleRegretSec,
			"static_regret_sec": rep.StaticRegretSec,
			"max_calib_error":   rep.MaxCalibrationError(),
		})
	}
	return recs, nil
}

// point is an operating point a recording re-prices at. Each field left
// zero keeps the recording's own: topo and traces replace its fabric, algo
// its collective algorithm (the recorded ops are algorithm-independent),
// and adjust edits a copy of its config's compute plane (compute model,
// straggler profile, overlap mode). The zero point is the recording's own
// fabric, core.Config.NewFabric.
type point struct {
	topo   *netsim.Topology
	traces []*netsim.BandwidthTrace
	algo   string
	adjust func(*core.Config)
}

// fig4At is the paper's Fig. 4 fabric at a bottleneck bandwidth.
func fig4At(bw float64) point {
	return point{topo: netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: bw})}
}

// at resolves an operating point against a recording: the config its log
// re-prices under and the fabric it prices on. Every point but the zero
// point refuses a fabric-sensitive recording (core.Config.FabricSensitive,
// a multi-candidate adaptive log): its decisions answered the recorded
// fabric, algorithm and clock, so replaying them under any other yields a
// clock no training there would have (DESIGN.md §8). Experiments retrain
// such cells per operating point, as RunAdaptive does.
func (r recording) at(p point) (core.Config, *netsim.Fabric) {
	cfg := r.cfg
	if p.topo != nil || p.algo != "" || p.adjust != nil {
		if cfg.FabricSensitive() {
			panic(fmt.Sprintf("harness: %q run is fabric-sensitive; retrain per operating point instead of re-pricing it elsewhere (DESIGN.md §8)", cfg.Scheme))
		}
		if p.algo != "" {
			cfg.Collective = p.algo
		}
		if p.adjust != nil {
			p.adjust(&cfg)
		}
	}
	if p.topo == nil {
		fabric := cfg.NewFabric()
		return cfg, fabric
	}
	fabric := netsim.NewFabric(p.topo)
	for _, tr := range p.traces {
		fabric.SetTrace(tr)
	}
	return cfg, fabric
}

// price re-prices a recording at an operating point and returns its
// cumulative simulated clock: cum[i] is the time after i iterations. It is
// core.Replay with no visitor, so at the zero point it reproduces the
// recorded clock bit for bit (TestReplayMatchesTrainingEveryConsumer), and
// a static log re-prices exactly under any fabric, algorithm, compute
// model, straggler profile and overlap mode.
func (r recording) price(p point) []float64 {
	cfg, fabric := r.at(p)
	coster := newOpCoster(collective.MustAlgorithm(cfg.Collective), fabric, fabric.Topo.Hosts()[:cfg.World], false)
	return core.Replay(&cfg, r.res.CommLog, coster.cost, nil)
}

// tta re-prices a recording at an operating point and reads the time to
// target off the rebuilt clock: the time of the first curve point at or
// above target, or the run's end (not reached) when none is. The
// convergence trajectory is reused; only the clock is rebuilt.
func (r recording) tta(p point, target float64) (float64, bool) {
	cum := r.price(p)
	for _, pt := range r.res.Curve.Points {
		if pt.Acc >= target {
			return cum[min(pt.Iter, len(cum)-1)], true
		}
	}
	return cum[len(cum)-1], false
}

// lookup is every result grid's cell scan: the first cell matching.
func lookup[T any](cells []T, match func(T) bool) (T, bool) {
	for _, c := range cells {
		if match(c) {
			return c, true
		}
	}
	var zero T
	return zero, false
}

// grid renders a rows × columns table under a corner header: row i is
// labelled rows[i], and cell(i, j) draws its entry, or "-" when the grid
// holds none there.
func grid(title, corner string, rows, cols []string, cell func(i, j int) (string, bool)) string {
	tb := metrics.NewTable(title, append([]string{corner}, cols...)...)
	for i, name := range rows {
		row := []string{name}
		for j := range cols {
			if s, ok := cell(i, j); ok {
				row = append(row, s)
			} else {
				row = append(row, "-")
			}
		}
		tb.AddRow(row...)
	}
	return tb.String()
}

// labels maps a grid axis to its header strings.
func labels[T any](axis []T, label func(T) string) []string {
	out := make([]string, len(axis))
	for i, v := range axis {
		out[i] = label(v)
	}
	return out
}

// flagMissed marks a TTA cell whose run never reached the target, the way
// the paper's log-scale bars saturate.
func flagMissed(cell string, reached bool) string {
	if !reached {
		return ">" + cell
	}
	return cell
}

// tableFromCurve renders a curve as a two-column table (time, accuracy).
func tableFromCurve(title string, c *metrics.Curve) *metrics.Table {
	tb := metrics.NewTable(title, "sim time", "accuracy")
	for _, p := range c.Points {
		tb.AddRow(metrics.FormatSeconds(p.SimTime), fmt.Sprintf("%.3f", p.Acc))
	}
	return tb
}
