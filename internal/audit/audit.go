// Package audit derives a counterfactual decision audit from a recorded
// training run: it rides the run's core.Replay as a visitor, and at every
// controller-driven round reprices the full candidate set with the same
// pricing arithmetic the adaptive controller used (adaptive.PriceQuotes on
// the recorded fabric). The resulting ledger — the cost
// every candidate *would* have incurred, round by round — answers the
// question the decision log alone cannot: was each pick right, and by how
// much?
//
// Three summaries fall out of the ledger:
//
//   - regret: the chosen formats' total quoted cost against the per-round
//     oracle (the cheapest quote each round) and against the best static
//     format (the single candidate with the lowest total);
//   - switch efficiency: for every observed format change, whether the
//     quoted savings over the rounds the new format was held exceeded zero
//     — did the hysteresis-dwelled switch pay for itself;
//   - calibration: the controller's launch-time predicted cost against the
//     timeline-replayed actual cost per op, as signed-relative-error
//     histograms per format. Options.StalenessSec ages the predicted side's
//     bandwidth view, so a fabric that lies (a flap the controller prices
//     late) shows up as calibration drift before it shows up as lost TTA.
//
// Like internal/obs, the audit is *derived*: it reads only the recorded log
// and the run's config, prices on a fabric of its own built from that
// config, and perturbs nothing — reports, fingerprints, and caches are
// byte-identical with or without it, and the audit artifact itself is
// byte-identical at any -parallel setting. As a guard, Replay verifies the
// replayed clock reproduces the recorded SimSeconds bit-for-bit; a mismatch
// means the config/fabric handed in is not the one the log was recorded
// under (DESIGN.md §8), and the audit refuses rather than reporting fiction.
package audit

import (
	"errors"
	"fmt"
	"math"

	"pactrain/internal/adaptive"
	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/netsim"
	"pactrain/internal/simclock"
)

// Options configures a replay audit.
type Options struct {
	// StalenessSec ages the controller-view bandwidth estimate: each decided
	// round's predicted cost (and the stale pick) is priced at
	// max(0, launch-StalenessSec) instead of the launch instant. Zero prices
	// at launch, where prediction and actual agree bit-for-bit on the
	// recorded fabric — the audit's calibration floor.
	StalenessSec float64
	// IncludeRounds keeps the full per-round ledger on the report (one entry
	// per decided round). Off, the report carries only the aggregates.
	IncludeRounds bool
}

// CalibrationEdges are the signed-relative-error bin boundaries of the
// calibration histograms: bin i counts errors in (edge[i-1], edge[i]], with
// an underflow bin below the first edge and an overflow bin above the last.
func CalibrationEdges() []float64 {
	return []float64{-0.5, -0.2, -0.1, -0.05, -0.01, 0.01, 0.05, 0.1, 0.2, 0.5}
}

// Round is one controller-driven bucket round of the counterfactual ledger.
type Round struct {
	// Iter and Bucket locate the round in the recorded log.
	Iter   int
	Bucket int
	// Format is the format the controller actually chose; NNZ the mask's
	// retained-coordinate count recovered from the wire; LaunchSec the
	// replayed launch instant.
	Format    string
	NNZ       int
	LaunchSec float64
	// Quotes is the full candidate ledger at the launch instant, in
	// canonical candidate order — exactly the quote vector the controller
	// weighed.
	Quotes []adaptive.Quote
	// PredictedSec is the chosen format's quote under the (possibly stale)
	// controller view; ActualSec the op's timeline-replayed duration.
	PredictedSec float64
	ActualSec    float64
	// OracleFormat is the cheapest candidate at launch; StaleFormat the
	// cheapest under the stale view (equal when StalenessSec is zero).
	OracleFormat string
	StaleFormat  string
}

// FormatTotal is one candidate's counterfactual season total: what the whole
// run's decided rounds would have cost had this format been used throughout.
type FormatTotal struct {
	Format   string
	QuoteSec float64
}

// Switch is one observed format change in the decision stream. A ledger
// switch is a *format change between consecutive decided rounds of a
// bucket*, which is a superset of the controller's completed hysteresis
// switches: a pruning-step mask reset re-picks incumbents from scratch, and
// a changed re-pick lands here too.
type Switch struct {
	Iter   int
	Bucket int
	From   string
	To     string
	// RoundsHeld counts the decided rounds the new format was held (this
	// bucket, until its next switch or end of run); SavedSec accumulates the
	// quoted saving quote(From)-quote(To) over those rounds. Paid means the
	// switch recovered more than it cost — SavedSec > 0.
	RoundsHeld int
	SavedSec   float64
	Paid       bool
}

// FormatCalibration is the predicted-vs-actual error distribution of one
// format's decided rounds: signed relative error (predicted-actual)/actual,
// binned by CalibrationEdges.
type FormatCalibration struct {
	Format          string
	Rounds          int
	MeanSignedError float64
	MaxAbsError     float64
	// Bins has len(CalibrationEdges())+1 counts: underflow, one per edge
	// interval, overflow.
	Bins []int
}

// Report is the audit of one recorded run. All slices are in deterministic
// order (candidates canonical, rounds and switches in replay order), so the
// serialized report is byte-identical across runs, parallelism budgets, and
// cache states.
type Report struct {
	// Label names the run in grid audits (the engine job label); empty for
	// direct single-run audits.
	Label string `json:",omitempty"`
	// Fingerprint is the run config's digest — the same identity the engine
	// dedups by, so one training audited under two labels is recognizable.
	Fingerprint string
	Scheme      string
	Model       string
	Collective  string
	World       int
	// Candidates is the controller's configured candidate set in canonical
	// order — the only formats the ledger prices.
	Candidates []string
	// MarginBound is the hysteresis guarantee 1/(1-margin): the chosen total
	// can never exceed the per-round oracle total by more than this factor.
	MarginBound  float64
	StalenessSec float64

	// Iters counts recorded iterations; DecidedRounds the ledger entries;
	// SkippedRounds decided ops whose mask NNZ was unrecoverable (dense
	// rounds before the bucket's first compact round); ForcedOps the
	// scheme's forced full syncs (unstable rounds, no Decision tag).
	Iters         int
	DecidedRounds int
	SkippedRounds int
	ForcedOps     int

	// ReplayEndSec is the replayed clock after the last iteration; Replay
	// verified it equals the recorded SimSeconds bit-for-bit.
	ReplayEndSec float64

	// ChosenSec totals the chosen formats' quotes over the ledger;
	// OracleSec the per-round cheapest quotes; ActualSec the decided ops'
	// timeline-replayed durations. OracleRegretSec = ChosenSec - OracleSec.
	ChosenSec       float64
	OracleSec       float64
	ActualSec       float64
	OracleRegretSec float64

	// Static holds every candidate's counterfactual total, in candidate
	// order; BestStatic* name the cheapest. StaticRegretSec =
	// ChosenSec - BestStaticSec: negative means the controller beat every
	// static format from the ledger alone.
	Static           []FormatTotal
	BestStaticFormat string
	BestStaticSec    float64
	StaticRegretSec  float64

	// Switches lists observed format changes in replay order; SwitchesPaid
	// counts those whose quoted savings were positive.
	Switches     []Switch
	SwitchesPaid int

	// MispickRounds counts rounds where the stale view's cheapest candidate
	// differs from the true oracle — the rounds a controller fed the stale
	// estimate would green-light the wrong format. Zero when StalenessSec
	// is zero.
	MispickRounds int

	// Calibration holds the per-format predicted-vs-actual distributions,
	// for formats with at least one decided round, in candidate order.
	Calibration []FormatCalibration

	// Rounds is the full ledger (Options.IncludeRounds).
	Rounds []Round `json:",omitempty"`
}

// MaxCalibrationError is the largest |signed relative error| across every
// format's calibration rows — the report's single-number drift headline.
func (r *Report) MaxCalibrationError() float64 {
	var m float64
	for _, c := range r.Calibration {
		if c.MaxAbsError > m {
			m = c.MaxAbsError
		}
	}
	return m
}

// calAccum accumulates one format's calibration statistics during replay.
type calAccum struct {
	rounds int
	sum    float64
	maxAbs float64
	bins   []int
}

func (a *calAccum) observe(err float64) {
	a.rounds++
	a.sum += err
	if abs := math.Abs(err); abs > a.maxAbs {
		a.maxAbs = abs
	}
	edges := CalibrationEdges()
	if a.bins == nil {
		a.bins = make([]int, len(edges)+1)
	}
	i := 0
	for i < len(edges) && err > edges[i] {
		i++
	}
	a.bins[i]++
}

// Replay audits one recorded run on the fabric its config describes
// (core.Config.NewFabric) — the fabric the controller priced on, which is
// the only fabric where the recorded decisions replay exactly (DESIGN.md
// §8). Runs recorded without controller decisions (static schemes) produce
// a report with zero DecidedRounds. A log that cannot be replayed under the
// config (core.CommLog.Replayable) is an error.
func Replay(cfg core.Config, res *core.Result, opt Options) (*Report, error) {
	if res == nil || res.CommLog == nil {
		return nil, errors.New("audit: result carries no communication log")
	}
	if err := res.CommLog.Replayable(&cfg); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	collName, err := collective.CanonicalAlgorithm(cfg.Collective)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	q := NewQuoter(&cfg, cfg.NewFabric(), res.CommLog.BucketElems)

	rep := &Report{
		Fingerprint:  cfg.Fingerprint(),
		Scheme:       cfg.Scheme,
		Model:        cfg.ModelName,
		Collective:   collName,
		World:        cfg.World,
		Candidates:   q.candidates,
		MarginBound:  adaptive.Regret(cfg.AdaptMargin),
		StalenessSec: opt.StalenessSec,
		Iters:        len(res.CommLog.Iters),
	}
	if err := replayLedger(rep, &cfg, res, q, opt); err != nil {
		return nil, err
	}
	finishReport(rep, opt)
	return rep, nil
}

// opVisitor adapts a per-op function to core.ReplayVisitor: the ledger
// needs each op's launch and cost, never the per-rank schedules.
type opVisitor func(k int, op core.CommOp, launch, cost float64)

func (opVisitor) StartIter(int, []simclock.IterSchedule) {}
func (f opVisitor) Op(k int, op core.CommOp, _, launch, cost float64) {
	f(k, op, launch, cost)
}

// replayLedger rides core.Replay — the walk re-costing and tracing use —
// with live pricing on the quoter's fabric, accumulating the ledger at
// every controller-driven op.
func replayLedger(rep *Report, cfg *core.Config, res *core.Result, q *Quoter, opt Options) error {
	statics := make(map[string]float64, len(rep.Candidates))
	cals := make(map[string]*calAccum, len(rep.Candidates))
	prevFormat := make(map[int]string) // bucket -> last decided format
	openSwitch := make(map[int]int)    // bucket -> index into rep.Switches

	var ledgerErr error
	price := func(op core.CommOp, launch float64) float64 {
		return core.CostOp(op, q.pricer, launch)
	}
	cum := core.Replay(cfg, res.CommLog, price, opVisitor(func(k int, op core.CommOp, launch, actual float64) {
		if ledgerErr != nil {
			return
		}
		if op.Decision == "" {
			rep.ForcedOps++
			return
		}
		n, nnz, known := q.Round(op)
		known = known || q.denseOnly // a dense-only set's quotes ignore the NNZ (Quoter.Round)
		if !known || n == 0 {
			rep.SkippedRounds++
			return
		}
		truth := q.Quotes(n, nnz, launch)
		stale := truth
		if opt.StalenessSec > 0 {
			stale = q.Quotes(n, nnz, max(0, launch-opt.StalenessSec))
		}
		chosen, okChosen := quoteFor(truth, op.Decision)
		predicted, okStale := quoteFor(stale, op.Decision)
		if !okChosen || !okStale {
			ledgerErr = fmt.Errorf("audit: recorded decision %q at iter %d bucket %d is outside the candidate set %v",
				op.Decision, k, op.Bucket, rep.Candidates)
			return
		}
		oracle := cheapest(truth)
		stalePick := cheapest(stale)

		rep.DecidedRounds++
		rep.ChosenSec += chosen
		rep.OracleSec += oracle.CostSeconds
		rep.ActualSec += actual
		if stalePick.Format != oracle.Format {
			rep.MispickRounds++
		}
		for _, q := range truth {
			statics[q.Format] += q.CostSeconds
		}
		ca := cals[op.Decision]
		if ca == nil {
			ca = &calAccum{}
			cals[op.Decision] = ca
		}
		ca.observe((predicted - actual) / actual)

		// Switch bookkeeping: every decided round extends the bucket's
		// open switch by the saving its pick banked over the format it
		// abandoned; a format change closes the old switch and opens a
		// new one.
		if prev, seen := prevFormat[op.Bucket]; seen && prev != op.Decision {
			delete(openSwitch, op.Bucket)
			rep.Switches = append(rep.Switches, Switch{
				Iter: k, Bucket: op.Bucket, From: prev, To: op.Decision,
			})
			openSwitch[op.Bucket] = len(rep.Switches) - 1
		}
		if si, open := openSwitch[op.Bucket]; open {
			sw := &rep.Switches[si]
			sw.RoundsHeld++
			from, _ := quoteFor(truth, sw.From)
			sw.SavedSec += from - chosen
		}
		prevFormat[op.Bucket] = op.Decision

		if opt.IncludeRounds {
			rep.Rounds = append(rep.Rounds, Round{
				Iter: k, Bucket: op.Bucket, Format: op.Decision,
				NNZ: nnz, LaunchSec: launch,
				Quotes:       truth,
				PredictedSec: predicted, ActualSec: actual,
				OracleFormat: oracle.Format, StaleFormat: stalePick.Format,
			})
		}
	}))
	if ledgerErr != nil {
		return ledgerErr
	}

	rep.ReplayEndSec = cum[len(cum)-1]
	if rep.ReplayEndSec != res.SimSeconds {
		return fmt.Errorf("audit: replayed clock %v != recorded SimSeconds %v (Δ %g) — the config/fabric is not the one the log was recorded under (DESIGN.md §8)",
			rep.ReplayEndSec, res.SimSeconds, rep.ReplayEndSec-res.SimSeconds)
	}

	for _, f := range rep.Candidates {
		if ca := cals[f]; ca != nil {
			rep.Calibration = append(rep.Calibration, FormatCalibration{
				Format:          f,
				Rounds:          ca.rounds,
				MeanSignedError: ca.sum / float64(ca.rounds),
				MaxAbsError:     ca.maxAbs,
				Bins:            ca.bins,
			})
		}
		rep.Static = append(rep.Static, FormatTotal{Format: f, QuoteSec: statics[f]})
	}
	return nil
}

// finishReport derives the closing aggregates from the accumulated ledger.
func finishReport(rep *Report, _ Options) {
	rep.OracleRegretSec = rep.ChosenSec - rep.OracleSec
	if rep.DecidedRounds == 0 {
		rep.Static = nil
		return
	}
	best := rep.Static[0]
	for _, s := range rep.Static[1:] {
		if s.QuoteSec < best.QuoteSec {
			best = s
		}
	}
	rep.BestStaticFormat = best.Format
	rep.BestStaticSec = best.QuoteSec
	rep.StaticRegretSec = rep.ChosenSec - rep.BestStaticSec
	for i := range rep.Switches {
		if rep.Switches[i].SavedSec > 0 {
			rep.Switches[i].Paid = true
			rep.SwitchesPaid++
		}
	}
}

// quoteFor fetches one format's cost from a quote vector.
func quoteFor(quotes []adaptive.Quote, format string) (float64, bool) {
	for _, q := range quotes {
		if q.Format == format {
			return q.CostSeconds, true
		}
	}
	return 0, false
}

// cheapest returns the lowest quote; ties resolve to the earlier candidate
// (canonical order), matching the controller's own argmin.
func cheapest(quotes []adaptive.Quote) adaptive.Quote {
	best := quotes[0]
	for _, q := range quotes[1:] {
		if q.CostSeconds < best.CostSeconds {
			best = q
		}
	}
	return best
}

// Quoter reads recorded controller rounds back into the quote vectors the
// controller weighed: the one reading the audit ledger and the trace
// (internal/harness) share. It resolves the run's candidates, its pricer
// (collective algorithm and hosts) and wire scale once, on the fabric the
// rounds are repriced on — the recorded fabric reproduces
// adaptive.Controller.Decide's quotes exactly.
type Quoter struct {
	candidates  []string
	pricer      *collective.Pricer
	scale       float64
	bucketElems []int
	// denseOnly marks a candidate set no quote of which reads the mask NNZ.
	denseOnly bool
	// last carries each bucket's most recent mask NNZ forward: dense rounds
	// do not reveal it on the wire.
	last map[int]int
}

// NewQuoter builds the quoter of a run recorded under cfg with the given
// bucket geometry (core.CommLog.BucketElems), pricing on fabric. The wire
// scale is core.WireScale over the buckets' element total: the buckets tile
// every parameter of the lite twin.
func NewQuoter(cfg *core.Config, fabric *netsim.Fabric, bucketElems []int) *Quoter {
	cands, err := adaptive.CanonicalCandidates(cfg.AdaptCandidates)
	if err != nil {
		cands = adaptive.Formats()
	}
	lite := 0
	for _, n := range bucketElems {
		lite += n
	}
	q := &Quoter{
		candidates:  cands,
		pricer:      collective.NewPricer(collective.MustAlgorithm(cfg.Collective), fabric, fabric.Topo.Hosts()[:cfg.World]),
		scale:       core.WireScale(cfg.Profile.Params, lite),
		bucketElems: bucketElems,
		denseOnly:   true,
		last:        make(map[int]int),
	}
	for _, f := range cands {
		if f != adaptive.FormatDense {
			q.denseOnly = false
		}
	}
	return q
}

// Round recovers a decided op's bucket size n (0 when the log has no bucket
// geometry) and mask NNZ, and advances the bucket's NNZ carry. The compact
// formats put exactly NNZ elements on the wire and the index list gathers
// NNZ coordinates per origin; a dense round takes the bucket's carried NNZ,
// so known is false before the bucket's first compact round — and always
// under a dense-only candidate set, which the audit quotes anyway (a dense
// quote ignores the NNZ) while the trace leaves it unquoted.
func (q *Quoter) Round(op core.CommOp) (n, nnz int, known bool) {
	if op.Bucket < len(q.bucketElems) {
		n = q.bucketElems[op.Bucket]
	}
	switch op.Decision {
	case adaptive.FormatCompact, adaptive.FormatCompactTernary:
		nnz, known = op.Elements, true
	case adaptive.FormatIndexList:
		if len(op.Sizes) > 0 {
			nnz, known = op.Sizes[0], true
		}
	case adaptive.FormatDense:
		nnz, known = q.last[op.Bucket]
	}
	if known {
		q.last[op.Bucket] = nnz
	}
	return n, nnz, known
}

// Quotes prices every candidate for a round of n elements with nnz retained
// coordinates at t, in candidate order (adaptive.PriceQuotes).
func (q *Quoter) Quotes(n, nnz int, t float64) []adaptive.Quote {
	return adaptive.PriceQuotes(q.pricer, q.scale, q.candidates, n, nnz, t)
}
