// Package pactrain is the public API of the PacTrain reproduction: a
// communication-efficient distributed-training framework combining
// unstructured pruning, Gradient Sparsity Enforcement, a Mask Tracker that
// recovers sparsity patterns from opaque DDP gradient buckets, and adaptive
// mask-compact gradient compression that remains compatible with ring
// all-reduce (Wang, Wu, Li, Kutscher — DAC 2025, arXiv:2505.18563).
//
// The package fronts the internal implementation:
//
//   - Train runs one distributed training job over a simulated
//     bandwidth-constrained fabric with any of the paper's aggregation
//     schemes (all-reduce, fp16, topk, DGC, TernGrad, QSGD, THC, parameter
//     server, OmniReduce-style, Zen-style, pactrain, pactrain-ternary).
//   - Experiment regenerates any table or figure of the paper's evaluation.
//   - NewCompressor, topology constructors, and the workload presets expose
//     the building blocks for custom studies.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package pactrain

import (
	"fmt"

	"pactrain/internal/audit"
	"pactrain/internal/collective"
	"pactrain/internal/compress"
	"pactrain/internal/core"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/harness"
	"pactrain/internal/harness/engine"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
	"pactrain/internal/obs"
	"pactrain/internal/prune"
)

// Re-exported core types. Config describes a distributed training run;
// Result is its outcome (accuracy curve, TTA, communication statistics,
// per-iteration comm log).
type (
	// Config configures a training run; construct with DefaultConfig.
	Config = core.Config
	// Result is a completed run's summary.
	Result = core.Result
	// Workload couples a paper model with its calibrated recipe.
	Workload = harness.Workload
	// Options configures experiment harness runs.
	Options = harness.Options
	// Engine is the shared experiment scheduler: a concurrency-limited
	// worker pool that deduplicates identical training jobs across
	// experiments and optionally caches results on disk.
	Engine = engine.Engine
	// EngineStats counts an engine's scheduling outcomes.
	EngineStats = engine.Stats
	// Topology is a simulated network graph.
	Topology = netsim.Topology
	// DatasetConfig configures synthetic dataset generation.
	DatasetConfig = data.Config
	// CommProfile is a full-size model's communication profile.
	CommProfile = nn.CommProfile
)

// Bandwidth helpers (bits per second).
const (
	Mbps = netsim.Mbps
	Gbps = netsim.Gbps
)

// Pruning method selectors.
const (
	GlobalMagnitude = prune.GlobalMagnitude
	LayerMagnitude  = prune.LayerMagnitude
	GraSP           = prune.GraSP
)

// DefaultConfig returns a ready-to-run configuration for a paper workload
// ("VGG19", "ResNet18", "ResNet152", "ViT-Base-16", or "MLP") and scheme.
func DefaultConfig(model, scheme string) Config {
	return core.DefaultConfig(model, scheme)
}

// Train executes a distributed training run and returns its result.
func Train(cfg Config) (*Result, error) {
	return core.Run(cfg)
}

// Schemes lists every aggregation scheme Train accepts, in the scheme
// registry's canonical order.
func Schemes() []string { return core.Schemes() }

// SchemeInfo is one scheme-catalog entry (name, description, aliases).
type SchemeInfo = core.SchemeInfo

// SchemeCatalog lists every scheme with its description — the table behind
// `pactrain-bench -list-schemes` and the service's GET /v1/schemes.
func SchemeCatalog() []SchemeInfo { return core.SchemeCatalog() }

// CollectiveAlgorithms lists the registered collective algorithms
// (Config.Collective vocabulary), the default ring first.
func CollectiveAlgorithms() []string { return collective.AlgorithmNames() }

// CollectiveInfo is one collective-algorithm catalog entry (name,
// description).
type CollectiveInfo = collective.AlgorithmInfo

// CollectiveCatalog lists every collective algorithm with its description —
// the table behind `pactrain-bench -list-collectives` and the service's
// GET /v1/collectives, mirroring SchemeCatalog for schemes.
func CollectiveCatalog() []CollectiveInfo { return collective.AlgorithmCatalog() }

// CanonicalCollective normalizes a collective-algorithm selector (the empty
// string canonicalizes to "ring") and errors on unknown names with the
// valid vocabulary.
func CanonicalCollective(name string) (string, error) {
	return collective.CanonicalAlgorithm(name)
}

// NewCompressor constructs a gradient compressor by figure name (e.g.
// "fp16", "topk-0.01", "terngrad"); see internal/compress for the suite.
func NewCompressor(name string, seed uint64) (compress.Compressor, error) {
	return compress.ByName(name, seed)
}

// Fig4Topology builds the paper's evaluation network (Fig. 4): eight GPU
// servers across three chained virtual switches whose two inter-switch
// links run at the given bottleneck speed.
func Fig4Topology(bottleneckBps float64) *Topology {
	return netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: bottleneckBps})
}

// FlatTopology builds n hosts on one switch at uniform link speed.
func FlatTopology(n int, bandwidthBps float64) *Topology {
	return netsim.FlatTopology(n, bandwidthBps, 1e-4)
}

// TwoRackTopology builds n hosts split across two switches joined by a
// single bottleneck link — the minimal fabric where the hierarchical
// collective algorithm pays off.
func TwoRackTopology(n int, bottleneckBps float64) *Topology {
	return netsim.TwoRackTopology(netsim.TwoRackOptions{Hosts: n, BottleneckBps: bottleneckBps})
}

// PaperWorkloads returns the four evaluation models with calibrated
// recipes and per-model target accuracies.
func PaperWorkloads() []Workload { return harness.PaperWorkloads() }

// Profiles returns the communication profiles of the paper's full-size
// models.
func Profiles() []CommProfile { return nn.Profiles() }

// A40ComputeModel returns the default simulated device model for a
// per-sample FLOP count.
func A40ComputeModel(flopsPerSample int64) ddp.ComputeModel {
	return ddp.A40ComputeModel(flopsPerSample)
}

// Overlap selects how bucket communication interleaves with backward
// compute (Config.Overlap): OverlapNone serializes compute then
// communication, OverlapBackward launches each DDP bucket's collective at
// its per-rank gradient-ready barrier (the event-timeline model, DESIGN.md
// §9).
type Overlap = ddp.Overlap

// Overlap modes.
const (
	OverlapNone     = ddp.OverlapNone
	OverlapBackward = ddp.OverlapBackward
)

// ParseOverlap resolves an overlap selector ("", "none", "backward") to a
// mode, erroring with the valid vocabulary on unknown names; it round-trips
// with Overlap.String.
func ParseOverlap(name string) (Overlap, error) { return ddp.ParseOverlap(name) }

// OverlapModes lists the selector vocabulary ParseOverlap accepts.
func OverlapModes() []string { return ddp.OverlapNames() }

// RankCompute describes per-rank compute heterogeneity (Config.RankCompute):
// straggler multipliers plus deterministically seeded per-iteration jitter.
type RankCompute = ddp.RankCompute

// OneSlowRank returns per-rank compute-time multipliers where the last of n
// ranks runs factor× slower — the canonical single-straggler profile for
// RankCompute.Multipliers.
func OneSlowRank(n int, factor float64) []float64 { return netsim.OneSlowRank(n, factor) }

// RampRanks returns multipliers ramping linearly from 1 to maxFactor across
// n ranks — a mixed-hardware cluster profile.
func RampRanks(n int, maxFactor float64) []float64 { return netsim.RampRanks(n, maxFactor) }

// IterationWireBytes returns, for every recorded training iteration, the
// payload bytes one worker put on the wire — the quantity PacTrain's
// adaptive compression shrinks once the Mask Tracker stabilizes. It
// returns nil when the run was not recorded (Config.RecordComm false).
func IterationWireBytes(res *Result) []float64 {
	if res.CommLog == nil {
		return nil
	}
	world := len(res.WeightChecksums)
	out := make([]float64, len(res.CommLog.Iters))
	for i, ops := range res.CommLog.Iters {
		out[i] = core.WireBytesPerWorker(ops, world)
	}
	return out
}

// Report is a rendered experiment result.
type Report = harness.Report

// ExperimentDef describes one registry entry: an experiment id, the paper
// artifact it regenerates, and its runner.
type ExperimentDef = harness.Definition

// ExperimentDefs lists the experiment registry in canonical order — one
// entry per paper artifact plus the ablations (see DESIGN.md §3). The same
// table backs the pactrain-bench CLI and the pactrain-serve service.
func ExperimentDefs() []ExperimentDef { return harness.Experiments() }

// LookupExperiment fetches a registry entry by id.
func LookupExperiment(id string) (ExperimentDef, bool) { return harness.ExperimentByID(id) }

// ExperimentIDs lists the identifiers Experiment accepts.
func ExperimentIDs() []string { return harness.ExperimentIDs() }

// Experiment regenerates a paper table/figure (or ablation) by id and
// returns its report.
//
// Experiments submit their training grids to a shared scheduler (see
// NewExperimentEngine) that deduplicates identical jobs, bounds parallelism
// (Options.Parallelism), and optionally caches results on disk
// (Options.CacheDir). Set Options.Engine to share one scheduler across
// several Experiment calls so repeated (model, scheme, seed) trainings
// execute once per process.
func Experiment(id string, opt Options) (Report, error) {
	def, ok := harness.ExperimentByID(id)
	if !ok {
		return nil, fmt.Errorf("pactrain: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	return def.Run(opt)
}

// NewExperimentEngine builds the scheduler described by the options; assign
// it to Options.Engine and reuse the Options across Experiment calls to
// deduplicate training work between experiments.
func NewExperimentEngine(opt Options) *Engine {
	return harness.NewEngine(opt)
}

// ExperimentJSON serializes an experiment report as an indented
// machine-readable JSON document, the structured counterpart of
// Report.Render.
func ExperimentJSON(id string, opt Options, rep Report) ([]byte, error) {
	return harness.ReportJSON(id, opt, rep)
}

// Fingerprint returns the deterministic digest identifying everything about
// a config that can influence its training Result — the deduplication and
// cache key the experiment engine schedules by.
func Fingerprint(cfg Config) string {
	return cfg.Fingerprint()
}

// Tracer collects per-rank simulation spans — compute, barrier waits,
// collectives, adaptive decisions — from recorded runs, for export as
// Chrome trace-event JSON that Perfetto and chrome://tracing open directly.
// Hang one on Options.Tracer (experiments) or call TraceRun (single runs);
// tracing is observation-only and never perturbs reports or fingerprints.
type Tracer = obs.Tracer

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// TraceRun derives the per-rank timeline of one recorded run (the config
// must have RecordComm set, as DefaultConfig does) into the tracer.
// Identical configs are traced once. The only error is a log that cannot
// be replayed under the config: per-bucket overlap over a recording that
// predates bucket geometry.
func TraceRun(tr *Tracer, label string, cfg Config, res *Result) error {
	return harness.TraceRun(tr, label, cfg, res)
}

// WriteTrace renders everything the tracer collected as a Chrome
// trace-event JSON file.
func WriteTrace(tr *Tracer, path string) error { return tr.Build().WriteFile(path) }

// TraceSummary renders a human-readable per-span-kind aggregate of the
// tracer's contents.
func TraceSummary(tr *Tracer) string { return tr.Summary() }

// ValidateTraceFile structurally checks a trace-event JSON file: parseable,
// spans non-negative and metadata-consistent, instants well-scoped. CI runs
// it on generated traces.
func ValidateTraceFile(path string) error { return obs.ValidateFile(path) }

// Auditor accumulates counterfactual audit reports across experiment runs,
// deduplicated by config fingerprint. Hang one on Options.Auditor; auditing
// is derived purely from recorded logs and never perturbs reports,
// fingerprints, or caches (DESIGN.md §13).
type Auditor = audit.Collector

// AuditReport is one run's counterfactual ledger: per-round candidate
// quotes, cumulative regret versus the per-round oracle and the best static
// format, switch-efficiency verdicts, and predicted-versus-actual cost
// calibration per format.
type AuditReport = audit.Report

// AuditOptions configures an audit replay (staleness injection, per-round
// ledger retention).
type AuditOptions = audit.Options

// NewAuditor returns an empty audit collector.
func NewAuditor() *Auditor { return audit.NewCollector() }

// AuditRun replays one recorded run's controller decisions through the
// pricing arithmetic the controller used and returns its ledger. The config
// must be the one the run was recorded under (DESIGN.md §8) and must have
// RecordComm set, as DefaultConfig does.
func AuditRun(label string, cfg Config, res *Result, opt AuditOptions) (*AuditReport, error) {
	return harness.AuditRun(label, cfg, res, opt)
}

// WriteAuditReports serializes audit reports as an indented JSON artifact —
// byte-identical across parallelism and kernel budgets.
func WriteAuditReports(path string, reports []*AuditReport) error {
	return audit.WriteReports(path, reports)
}

// AuditSummary renders the collected ledgers as human-readable regret,
// calibration, and switch tables.
func AuditSummary(reports []*AuditReport) string { return audit.Summary(reports) }
