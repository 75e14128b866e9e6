package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"pactrain/internal/core"
	"pactrain/internal/harness/engine"
	"pactrain/internal/obs"
)

// decodedTrace pulls the fields the tests assert on out of exported JSON.
type decodedTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func decodeTrace(t *testing.T, raw []byte) decodedTrace {
	t.Helper()
	var doc decodedTrace
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	return doc
}

// TestTraceRunEndMatchesSimSeconds anchors the replayed spans to the
// recorded clock: the latest span edge in a run's trace is the run's
// SimSeconds (the spans come from a core.Replay visitor, so the only slack
// is the seconds→microseconds conversion).
func TestTraceRunEndMatchesSimSeconds(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	w := QuickWorkloads()[0]
	job := trainJobs("trace-test", w, opt, "pactrain-ternary")[0]
	res, err := testEngine.Run(job)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	if err := TraceRun(tr, job.Label, job.Config, res); err != nil {
		t.Fatal(err)
	}
	if tr.Runs() != 1 {
		t.Fatalf("runs traced = %d, want 1", tr.Runs())
	}
	raw, err := tr.Build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(raw); err != nil {
		t.Fatalf("trace fails validation: %v", err)
	}

	latest := 0.0
	cats := map[string]bool{}
	for _, ev := range decodeTrace(t, raw).TraceEvents {
		cats[ev.Ph+"/"+ev.Cat] = true
		if ev.Ph == "X" && ev.Ts+ev.Dur > latest {
			latest = ev.Ts + ev.Dur
		}
	}
	for _, want := range []string{"X/compute", "X/collective", "i/decision"} {
		if !cats[want] {
			t.Errorf("trace missing %s events", want)
		}
	}
	want := res.SimSeconds * 1e6
	if math.Abs(latest-want) > 1e-6*want {
		t.Fatalf("latest span edge %v µs, recorded SimSeconds %v µs", latest, want)
	}
}

// TestTraceDeterministicAcrossParallelism is satellite 3's contract: the
// same experiment traced under different engine budgets exports
// byte-identical JSON, and tracing never perturbs the report.
func TestTraceDeterministicAcrossParallelism(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	build := func(par int, traced bool) ([]byte, *StragglersResult) {
		opt := quickOpts()
		opt.Engine = engine.New(engine.Options{Parallelism: par})
		if traced {
			opt.Tracer = obs.NewTracer()
		}
		out, err := RunStragglers(opt)
		if err != nil {
			t.Fatal(err)
		}
		if !traced {
			return nil, out
		}
		raw, err := opt.Tracer.Build().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return raw, out
	}

	serialJSON, serialOut := build(1, true)
	parJSON, parOut := build(runtime.GOMAXPROCS(0), true)
	if !bytes.Equal(serialJSON, parJSON) {
		t.Fatal("trace JSON differs between -parallel budgets")
	}
	if err := obs.Validate(serialJSON); err != nil {
		t.Fatalf("trace fails validation: %v", err)
	}
	if !reflect.DeepEqual(serialOut, parOut) {
		t.Fatal("report differs between -parallel budgets")
	}
	_, untracedOut := build(1, false)
	if !reflect.DeepEqual(serialOut, untracedOut) {
		t.Fatal("tracing perturbed the report")
	}

	// The straggler cell replays must show wait spans on more than one rank
	// (the fast ranks blocked at the slow rank's barrier).
	waitPids := map[int]bool{}
	for _, ev := range decodeTrace(t, serialJSON).TraceEvents {
		if ev.Cat == "barrier" {
			waitPids[ev.Pid] = true
		}
	}
	if len(waitPids) < 2 {
		t.Fatalf("barrier waits on %d pids, want ≥ 2 (straggler exposure)", len(waitPids))
	}
}

// TestTraceAdaptiveDecisionsCarryQuotes checks the adaptive replay path:
// decision instants appear on every rank, and the compact rounds carry the
// repriced candidate quotes (one per canonical format) on rank 0.
func TestTraceAdaptiveDecisionsCarryQuotes(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	opt := quickOpts()
	opt.defaults()
	w := QuickWorkloads()[0]
	cfg := baseConfig(w, core.SchemeAdaptive, opt)
	res, err := testEngine.Run(engine.Job{Label: "trace-adaptive", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	if err := TraceRun(tr, "trace-adaptive", cfg, res); err != nil {
		t.Fatal(err)
	}
	raw, err := tr.Build().JSON()
	if err != nil {
		t.Fatal(err)
	}

	decisionPids := map[int]bool{}
	quoted := 0
	for _, ev := range decodeTrace(t, raw).TraceEvents {
		if ev.Cat != "decision" {
			continue
		}
		decisionPids[ev.Pid] = true
		if q, ok := ev.Args["quotes"].(map[string]any); ok {
			if len(q) != 4 {
				t.Fatalf("decision instant quotes %d formats, want 4: %v", len(q), q)
			}
			quoted++
		}
	}
	if len(decisionPids) != cfg.World {
		t.Fatalf("decision instants on %d pids, want world %d", len(decisionPids), cfg.World)
	}
	if quoted == 0 {
		t.Fatal("no decision instant carries candidate quotes")
	}
}
