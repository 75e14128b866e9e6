package audit

import (
	"math"
	"strings"
	"sync"
	"testing"

	"pactrain/internal/adaptive"
	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/data"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
)

// wanConfig builds a fast adaptive run on the WAN-latency Fig. 4 fabric —
// the regime where several wire formats are genuinely in play — with an
// optional oscillating bottleneck trace of the given period.
func wanConfig(periodSec float64, candidates ...string) core.Config {
	cfg := core.DefaultConfig("MLP", core.SchemeAdaptive)
	cfg.World = 4
	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: 1 * netsim.Gbps, LatencySec: 5e-3})
	cfg.Topology = topo
	cfg.Data = data.CIFAR10Like(320, 5)
	cfg.TestSamples = 100
	cfg.Epochs = 3
	cfg.BatchSize = 8
	cfg.PretrainEpochs = 1
	cfg.TargetAcc = 0.5
	cfg.BucketBytes = 1 << 14
	cfg.Profile = nn.CommProfile{Name: "MLP", Params: 1_000_000, FLOPsPerSample: 50_000_000}
	cfg.AdaptCandidates = candidates
	if periodSec > 0 {
		for _, li := range topo.InterSwitchLinks() {
			var segs []netsim.TraceSegment
			for k := 0; k < 1024; k++ {
				scale := 1.0
				if k%2 == 1 {
					scale = 0.1
				}
				segs = append(segs, netsim.TraceSegment{UntilSec: float64(k+1) * periodSec, Scale: scale})
			}
			segs = append(segs, netsim.TraceSegment{UntilSec: math.Inf(1), Scale: 1})
			cfg.Traces = append(cfg.Traces, &netsim.BandwidthTrace{LinkIndex: li, Segments: segs})
		}
	}
	return cfg
}

// oscPeriod keeps the oscillation fast enough that a 3-epoch run sees
// several regime flips.
const oscPeriod = 0.2

var (
	trainOnce sync.Once
	trainCfg  core.Config
	trainRes  *core.Result
	trainErr  error
)

// trainedRun trains the shared oscillating-WAN adaptive run once per test
// process.
func trainedRun(t *testing.T) (core.Config, *core.Result) {
	t.Helper()
	trainOnce.Do(func() {
		trainCfg = wanConfig(oscPeriod)
		trainRes, trainErr = core.Run(trainCfg)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trainCfg, trainRes
}

func TestAuditLedgerReplaysRecordedRun(t *testing.T) {
	cfg, res := trainedRun(t)
	rep, err := Replay(cfg, res, Options{IncludeRounds: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecidedRounds == 0 {
		t.Fatal("adaptive run audited to zero decided rounds")
	}
	if rep.ReplayEndSec != res.SimSeconds {
		t.Fatalf("replay end %v != SimSeconds %v", rep.ReplayEndSec, res.SimSeconds)
	}
	if rep.Iters != len(res.CommLog.Iters) {
		t.Fatalf("iters %d != recorded %d", rep.Iters, len(res.CommLog.Iters))
	}
	if len(rep.Rounds) != rep.DecidedRounds {
		t.Fatalf("ledger has %d rounds, summary says %d", len(rep.Rounds), rep.DecidedRounds)
	}
	// The ledger's totals must re-derive from its own rounds.
	var chosen, oracle, actual float64
	for _, rd := range rep.Rounds {
		q, ok := quoteFor(rd.Quotes, rd.Format)
		if !ok {
			t.Fatalf("round iter %d bucket %d: chosen %q missing from quotes", rd.Iter, rd.Bucket, rd.Format)
		}
		chosen += q
		oracle += cheapest(rd.Quotes).CostSeconds
		actual += rd.ActualSec
	}
	if chosen != rep.ChosenSec || oracle != rep.OracleSec || actual != rep.ActualSec {
		t.Fatalf("ledger totals disagree with summary: chosen %v/%v oracle %v/%v actual %v/%v",
			chosen, rep.ChosenSec, oracle, rep.OracleSec, actual, rep.ActualSec)
	}
	if rep.OracleSec > rep.ChosenSec {
		t.Fatalf("oracle %v above chosen %v", rep.OracleSec, rep.ChosenSec)
	}
	if rep.OracleRegretSec != rep.ChosenSec-rep.OracleSec {
		t.Fatalf("oracle regret %v != %v", rep.OracleRegretSec, rep.ChosenSec-rep.OracleSec)
	}
	// Hysteresis guarantee: the chosen total can never exceed the oracle
	// total by more than the margin bound.
	if rep.ChosenSec > rep.OracleSec*rep.MarginBound*(1+1e-12) {
		t.Fatalf("chosen %v breaches margin bound %v × oracle %v", rep.ChosenSec, rep.MarginBound, rep.OracleSec)
	}
	if rep.BestStaticSec <= 0 || rep.BestStaticFormat == "" {
		t.Fatalf("no best static: %+v", rep)
	}
	if txt := rep.Render(); !strings.Contains(txt, "counterfactual ledger") {
		t.Fatalf("render missing ledger table:\n%s", txt)
	}
}

// TestDecidedOpsCarryTheQuoterWireScale pins the one wire-scale formula:
// every decided op's recorded per-element bytes are its format's base width
// times core.WireScale over the recorded buckets' element total — the scale
// the trainer derived from the model's parameter count, and the one the
// quoter reprices with.
func TestDecidedOpsCarryTheQuoterWireScale(t *testing.T) {
	cfg, res := trainedRun(t)
	base := map[string]collective.WireFormat{
		adaptive.FormatDense:          collective.WireFP32,
		adaptive.FormatCompact:        collective.WireFP32,
		adaptive.FormatCompactTernary: collective.WireInt8,
		adaptive.FormatIndexList:      collective.WireSparse,
	}
	lite := 0
	for _, n := range res.CommLog.BucketElems {
		lite += n
	}
	scale := core.WireScale(cfg.Profile.Params, lite)
	if scale == 1 {
		t.Fatalf("wire scale 1: the run does not exercise the lite-twin scaling")
	}
	if q := NewQuoter(&cfg, cfg.NewFabric(), res.CommLog.BucketElems); q.scale != scale {
		t.Fatalf("quoter scale %v, want %v", q.scale, scale)
	}
	decided := 0
	for k, ops := range res.CommLog.Iters {
		for _, op := range ops {
			if op.Decision == "" {
				continue
			}
			decided++
			w := base[op.Decision]
			if op.Wire.Name != w.Name || op.Wire.BytesPerElement != w.BytesPerElement*scale {
				t.Fatalf("iter %d bucket %d %s: wire %s at %v B/elem, want %s at %v",
					k, op.Bucket, op.Decision, op.Wire.Name, op.Wire.BytesPerElement, w.Name, w.BytesPerElement*scale)
			}
		}
	}
	if decided == 0 {
		t.Fatal("no decided ops in the recorded run")
	}
}

// TestAuditRegretAdaptiveAtMostBestStatic is the payoff assertion from the
// ledger side: on the oscillating fabric the controller's chosen total must
// sit at or below every single-format counterfactual season — PR 4's
// "adaptive ≤ best static" reproduced from recorded logs alone.
func TestAuditRegretAdaptiveAtMostBestStatic(t *testing.T) {
	cfg, res := trainedRun(t)
	rep, err := Replay(cfg, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StaticRegretSec > rep.BestStaticSec*(rep.MarginBound-1)*(1+1e-12) {
		t.Fatalf("chosen %v exceeds best static %v beyond the margin bound (regret %v)",
			rep.ChosenSec, rep.BestStaticSec, rep.StaticRegretSec)
	}
	for _, s := range rep.Static {
		if s.QuoteSec < rep.BestStaticSec {
			t.Fatalf("static %s total %v below best %v", s.Format, s.QuoteSec, rep.BestStaticSec)
		}
	}
}

// TestAuditCalibrationExactAtZeroStaleness pins the calibration floor: at
// staleness zero the predicted side prices the chosen format at the same
// launch instant on the same fabric as the timeline replay, so predicted and
// actual agree bit-for-bit and every error histogram is a spike at zero.
func TestAuditCalibrationExactAtZeroStaleness(t *testing.T) {
	cfg, res := trainedRun(t)
	rep, err := Replay(cfg, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.MaxCalibrationError(); got != 0 {
		t.Fatalf("zero-staleness calibration error %v, want exactly 0", got)
	}
	if rep.MispickRounds != 0 {
		t.Fatalf("zero-staleness mispicks %d, want 0", rep.MispickRounds)
	}
	total := 0
	for _, c := range rep.Calibration {
		total += c.Rounds
		if c.MeanSignedError != 0 || c.MaxAbsError != 0 {
			t.Fatalf("format %s drifted at zero staleness: %+v", c.Format, c)
		}
	}
	if total != rep.DecidedRounds {
		t.Fatalf("calibration covers %d rounds of %d", total, rep.DecidedRounds)
	}
}

// TestAuditCalibrationWidensWithStaleness is the flap question made
// runnable: on the oscillating-bottleneck fabric, the further the
// controller's bandwidth view lags reality, the wider the predicted-vs-
// actual error grows — monotonically across staleness levels.
func TestAuditCalibrationWidensWithStaleness(t *testing.T) {
	cfg, res := trainedRun(t)
	stale := []float64{0, oscPeriod / 4, oscPeriod / 2}
	var errs []float64
	for _, s := range stale {
		rep, err := Replay(cfg, res, Options{StalenessSec: s})
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, rep.MaxCalibrationError())
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] < errs[i-1] {
			t.Fatalf("calibration error shrank with staleness: %v at %v", errs, stale)
		}
	}
	if errs[len(errs)-1] <= 0 {
		t.Fatalf("stale view never drifted: %v", errs)
	}
}

// TestAuditRestrictedCandidates pins the ledger's candidate discipline:
// with AdaptCandidates restricted, every round's quote vector holds exactly
// the configured candidates, in canonical order.
func TestAuditRestrictedCandidates(t *testing.T) {
	cfg := wanConfig(0, adaptive.FormatIndexList, adaptive.FormatCompactTernary)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(cfg, res, Options{IncludeRounds: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{adaptive.FormatCompactTernary, adaptive.FormatIndexList} // canonical order
	if len(rep.Candidates) != len(want) {
		t.Fatalf("candidates %v, want %v", rep.Candidates, want)
	}
	for i, f := range want {
		if rep.Candidates[i] != f {
			t.Fatalf("candidates %v, want %v", rep.Candidates, want)
		}
	}
	if rep.DecidedRounds == 0 {
		t.Fatal("no decided rounds")
	}
	for _, rd := range rep.Rounds {
		if len(rd.Quotes) != len(want) {
			t.Fatalf("round iter %d bucket %d quotes %v, want formats %v", rd.Iter, rd.Bucket, rd.Quotes, want)
		}
		for i, f := range want {
			if rd.Quotes[i].Format != f {
				t.Fatalf("round iter %d bucket %d quote order %v, want %v", rd.Iter, rd.Bucket, rd.Quotes, want)
			}
		}
	}
	if len(rep.Static) != len(want) {
		t.Fatalf("static totals %v, want one per candidate %v", rep.Static, want)
	}
}

// TestAuditDeterministic pins the artifact's byte-identity: training and
// auditing the same run twice produces the same serialized report.
func TestAuditDeterministic(t *testing.T) {
	artifact := func() []byte {
		cfg := wanConfig(oscPeriod)
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(cfg, res, Options{IncludeRounds: true, StalenessSec: oscPeriod / 4})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := MarshalReports([]*Report{rep})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := artifact(), artifact()
	if string(a) != string(b) {
		t.Fatalf("audit artifact differs between two runs (%d vs %d bytes)", len(a), len(b))
	}
}

// TestAuditStaticSchemeHasNoLedger: a run without controller decisions
// audits to an empty ledger, not an error.
func TestAuditStaticSchemeHasNoLedger(t *testing.T) {
	cfg := wanConfig(0)
	cfg.Scheme = "pactrain-ternary"
	cfg.AdaptCandidates = nil
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(cfg, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecidedRounds != 0 || len(rep.Static) != 0 || len(rep.Switches) != 0 {
		t.Fatalf("static run grew a ledger: %+v", rep)
	}
	if !strings.Contains(rep.Render(), "no controller decisions") {
		t.Fatalf("render should flag the empty ledger:\n%s", rep.Render())
	}
}

// TestAuditRejectsUnrecordedRun and the fabric guard: auditing needs a
// CommLog, and a config describing a different fabric than the log was
// recorded under must refuse rather than fabricate a ledger.
func TestAuditRejectsUnrecordedRun(t *testing.T) {
	cfg, res := trainedRun(t)
	if _, err := Replay(cfg, &core.Result{}, Options{}); err == nil {
		t.Fatal("unrecorded run audited without error")
	}
	wrong := cfg
	wrong.Topology = netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: 100 * netsim.Mbps, LatencySec: 5e-3})
	wrong.Traces = nil
	if _, err := Replay(wrong, res, Options{}); err == nil {
		t.Fatal("wrong-fabric audit did not detect clock divergence")
	} else if !strings.Contains(err.Error(), "DESIGN.md §6") {
		t.Fatalf("divergence error should cite the replay contract: %v", err)
	}
}

// TestAuditSwitchLedger sanity-checks the switch bookkeeping on a run with
// regime flips: every observed switch holds at least one round, and paid
// switches are exactly those with positive quoted savings.
func TestAuditSwitchLedger(t *testing.T) {
	cfg, res := trainedRun(t)
	rep, err := Replay(cfg, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	paid := 0
	for _, sw := range rep.Switches {
		if sw.RoundsHeld < 1 {
			t.Fatalf("switch held zero rounds: %+v", sw)
		}
		if sw.From == sw.To {
			t.Fatalf("self-switch recorded: %+v", sw)
		}
		if sw.Paid != (sw.SavedSec > 0) {
			t.Fatalf("paid flag disagrees with savings: %+v", sw)
		}
		if sw.Paid {
			paid++
		}
	}
	if paid != rep.SwitchesPaid {
		t.Fatalf("paid count %d != summary %d", paid, rep.SwitchesPaid)
	}
}

func TestCollectorDedupsByFingerprint(t *testing.T) {
	cfg, res := trainedRun(t)
	rep1, err := Replay(cfg, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Replay(cfg, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	if !c.Add(rep1) {
		t.Fatal("first add dropped")
	}
	if c.Add(rep2) {
		t.Fatal("fingerprint repeat kept")
	}
	if c.Add(nil) {
		t.Fatal("nil report kept")
	}
	if got := c.Reports(); len(got) != 1 || got[0] != rep1 {
		t.Fatalf("collector holds %v", got)
	}
	if !strings.Contains(Summary(c.Reports()), "counterfactual ledger") {
		t.Fatal("summary missing ledger table")
	}
	if !strings.Contains(Summary(nil), "no controller-driven runs") {
		t.Fatal("empty summary missing notice")
	}
}
