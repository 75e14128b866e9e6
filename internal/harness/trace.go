package harness

import (
	"fmt"

	"pactrain/internal/adaptive"
	"pactrain/internal/audit"
	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/netsim"
	"pactrain/internal/obs"
	"pactrain/internal/simclock"
)

// This file converts recorded training results into obs spans. Traces are
// *derived* — a core.Replay visitor sees the same schedules, launches and
// costs re-costing accumulates into a clock — rather than collected from
// live trainer callbacks, for the same reason re-costing replays logs
// instead of re-running training: the recorded log is the deterministic
// ground truth, so the exported trace is byte-identical across runs,
// parallelism budgets, and cache states, and tracing costs nothing when
// disabled (DESIGN.md §11).

// TraceRun replays one recorded run into the tracer's span model on the
// fabric the run's config describes (core.Config.NewFabric) — the same
// fabric the trainer priced it on, which is the only fabric an adaptive
// log replays exactly (DESIGN.md §8). A nil tracer, a nil result, or a
// result without a log (one decoded from elsewhere) is a no-op; a log that
// cannot be replayed under the config (core.CommLog.Replayable) is an error.
func TraceRun(tr *obs.Tracer, label string, cfg core.Config, res *core.Result) error {
	if tr == nil || res == nil || res.CommLog == nil {
		return nil
	}
	if err := res.CommLog.Replayable(&cfg); err != nil {
		return fmt.Errorf("trace %s: %w", label, err)
	}
	fabric := cfg.NewFabric()
	traceRunOn(tr, label, cfg.Fingerprint(), cfg, res, fabric)
	return nil
}

// traceRunOn is TraceRun with the replay fabric and dedup key explicit: the
// experiment re-cost paths trace their replays on the fabric the cell
// prices (which the config does not name), keyed by label instead of
// fingerprint so a cell replay never collides with the base run's trace.
// Its results come from the engine, which serves only replayable logs.
func traceRunOn(tr *obs.Tracer, label, dedupKey string, cfg core.Config, res *core.Result, fabric *netsim.Fabric) {
	run := tr.StartRun(label, dedupKey, cfg.World, res.CommLog.BucketElems)
	if run == nil {
		return // tracing off, or already traced (same fingerprint under another experiment)
	}
	hosts := fabric.Topo.Hosts()[:cfg.World]
	coster := newOpCoster(collective.MustAlgorithm(cfg.Collective), fabric, hosts, false)
	core.Replay(&cfg, res.CommLog, coster.cost, &spanVisitor{
		run:    run,
		quoter: audit.NewQuoter(&cfg, fabric, res.CommLog.BucketElems),
	})
}

// traceRecost drops a harness-level instant marking a re-costing pass (the
// cells that reuse a recorded run instead of training). Full span replays
// of every cell would dwarf the training traces, so cells are marked and
// only selected ones (see RunStragglers) get replayed in full.
func (o *Options) traceRecost(experiment string, args map[string]any) {
	if o.Tracer == nil {
		return
	}
	full := map[string]any{"experiment": experiment}
	for k, v := range args {
		full[k] = v
	}
	o.Tracer.AddMark("recost", full)
}

// spanSink is the part of *obs.RunTrace the span visitor emits through;
// the replay property test substitutes a recorder to read span edges in
// simulated seconds, before the exporter's microsecond conversion.
type spanSink interface {
	Compute(rank, iter int, start, fwd, bwd float64)
	BarrierWait(rank, bucket, iter int, from, until float64)
	Collective(rank, bucket, iter int, name string, start, end float64, args map[string]any)
	Decision(rank, bucket, iter int, at float64, format string, args map[string]any)
}

// spanVisitor is the core.Replay visitor that emits spans: every rank's
// compute, its wait at each bucket barrier, the collective, and the
// wire-format decision. Span edges are the replayed clock's own operands, so
// they equal the re-costed clock (TestReplayMatchesTrainingEveryConsumer).
// A static scheme's decision is its (frozen) wire format; an adaptive
// round's carries the candidate quotes the audit ledger prices, read by the
// same audit.Quoter (TestTraceQuotesMatchAuditLedger).
type spanVisitor struct {
	run    spanSink
	quoter *audit.Quoter
	scheds []simclock.IterSchedule
}

func (v *spanVisitor) StartIter(k int, scheds []simclock.IterSchedule) {
	v.scheds = scheds
	for r, s := range scheds {
		v.run.Compute(r, k, s.Start, s.Fwd, s.Bwd)
	}
}

func (v *spanVisitor) Op(k int, op core.CommOp, streamFree, launch, cost float64) {
	end := launch + cost
	name, args := opSpan(op)
	format, quoteArgs := op.Wire.Name, map[string]any(nil)
	if op.Decision != "" {
		format = op.Decision
		// Unlike the audit, quote only rounds whose mask NNZ the wire
		// revealed: a dense-only set's rounds stay unquoted (Quoter.Round).
		if n, nnz, known := v.quoter.Round(op); known && n > 0 {
			quoteArgs = map[string]any{"quotes": quoteMap(v.quoter.Quotes(n, nnz, launch)), "nnz": nnz}
		}
	}
	for r, s := range v.scheds {
		if from, dur := s.WaitInterval(op.Bucket, streamFree, launch); dur > 0 {
			v.run.BarrierWait(r, op.Bucket, k, from, launch)
		}
		v.run.Collective(r, op.Bucket, k, name, launch, end, args)
		if r != 0 {
			// The candidate quotes are replica-identical; carrying them on
			// rank 0 only keeps the trace compact.
			quoteArgs = nil
		}
		v.run.Decision(r, op.Bucket, k, launch, format, quoteArgs)
	}
}

// opSpan names a recorded op and assembles its collective-span args.
func opSpan(op core.CommOp) (string, map[string]any) {
	args := map[string]any{"wire": op.Wire.Name}
	name := "collective"
	switch op.Kind {
	case core.OpAllReduce:
		name = "all-reduce"
		args["elems"] = op.Elements
	case core.OpAllGather:
		name = "all-gather"
		total := 0
		for _, s := range op.Sizes {
			total += s
		}
		args["elems"] = total
	case core.OpPS:
		name = "ps-aggregate"
		args["elems"] = op.Elements
	case core.OpBlockSparse:
		name = "block-sparse"
		args["elems"] = op.Union * op.BlockSz
	case core.OpBitmapBroadcast:
		name = "bitmap-broadcast"
		args["elems"] = op.Elements
	}
	return name, args
}

// quoteMap keys a quote vector by format for the decision span's args.
func quoteMap(quotes []adaptive.Quote) map[string]any {
	m := make(map[string]any, len(quotes))
	for _, q := range quotes {
		m[q.Format] = q.CostSeconds
	}
	return m
}
