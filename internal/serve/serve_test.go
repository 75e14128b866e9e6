package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/harness"
	"pactrain/internal/harness/engine"
)

// testRequest is a tiny grid (MLP twin, 2 workers, 64 samples) so the
// service tests — which really train — stay fast enough for the -short
// race lane.
func testRequest(exp string) SubmitRequest {
	return SubmitRequest{Experiment: exp, Quick: true, World: 2, Samples: 64, Seed: 5}
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON[T any](t *testing.T, url string) (int, T) {
	t.Helper()
	var v T
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("unmarshal %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode, v
}

// waitForState polls a job until it reaches want (or any terminal state).
func waitForState(t *testing.T, base, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, view := getJSON[JobView](t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job poll status %d", code)
		}
		if view.State == want || view.State == JobDone || view.State == JobFailed {
			if view.State != want {
				t.Fatalf("job %s reached %q (error %q), want %q", id, view.State, view.Error, want)
			}
			return view
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return JobView{}
}

// TestConcurrentIdenticalSubmissionsCoalesce is the tentpole contract:
// identical in-flight submissions share one job id, the report is
// byte-identical to a direct harness call (and so to `pactrain-bench
// -json` output), and a later identical job re-costs via the engine's
// dedup table instead of retraining.
func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Parallelism: 4, Workers: 2})

	req := testRequest("fig3")
	type submission struct {
		resp submitResponse
		code int
	}
	subs := make([]submission, 2)
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/v1/experiments", req)
			subs[i].code = resp.StatusCode
			if err := json.Unmarshal(raw, &subs[i].resp); err != nil {
				t.Errorf("unmarshal submit response: %v\n%s", err, raw)
			}
		}()
	}
	wg.Wait()
	for _, sub := range subs {
		if sub.code != http.StatusAccepted {
			t.Fatalf("submit status %d, want 202", sub.code)
		}
	}
	if subs[0].resp.JobID != subs[1].resp.JobID {
		t.Fatalf("identical submissions got distinct jobs: %q vs %q",
			subs[0].resp.JobID, subs[1].resp.JobID)
	}
	if subs[0].resp.Coalesced == subs[1].resp.Coalesced {
		t.Fatalf("exactly one submission must coalesce, got %v and %v",
			subs[0].resp.Coalesced, subs[1].resp.Coalesced)
	}
	id := subs[0].resp.JobID

	view := waitForState(t, ts.URL, id, JobDone)
	if view.Coalesced != 1 {
		t.Fatalf("coalesced clients = %d, want 1", view.Coalesced)
	}
	if view.Progress.Submitted == 0 {
		t.Fatalf("job progress never observed engine events: %+v", view.Progress)
	}

	// The served report must be byte-identical to the CLI's -json output:
	// ReportJSON from a direct harness call, plus the trailing newline the
	// CLI prints.
	opts := harness.Options{
		Quick: req.Quick, World: req.World, Samples: req.Samples, Seed: req.Seed,
		Engine: engine.New(engine.Options{Parallelism: 4}),
	}
	def, ok := harness.ExperimentByID("fig3")
	if !ok {
		t.Fatal("fig3 missing from registry")
	}
	rep, err := def.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.ReportJSON("fig3", opts, rep)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	for range 2 {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result status %d: %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("served report differs from direct harness call:\nserved: %s\ndirect: %s", got, want)
		}
	}

	// A second identical job after completion is a new job, but the shared
	// engine satisfies its whole grid from the dedup table: no new
	// trainings.
	before := getStats(t, ts.URL)
	resp2, raw2 := postJSON(t, ts.URL+"/v1/experiments", req)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit status %d", resp2.StatusCode)
	}
	var again submitResponse
	if err := json.Unmarshal(raw2, &again); err != nil {
		t.Fatal(err)
	}
	if again.JobID == id {
		t.Fatal("completed job must not absorb new submissions")
	}
	waitForState(t, ts.URL, again.JobID, JobDone)
	after := getStats(t, ts.URL)
	if after.Engine.Trained != before.Engine.Trained {
		t.Fatalf("resubmission retrained: %d -> %d trainings",
			before.Engine.Trained, after.Engine.Trained)
	}
	if after.Engine.Deduped <= before.Engine.Deduped {
		t.Fatalf("resubmission not deduplicated: %+v -> %+v", before.Engine, after.Engine)
	}
}

func getStats(t *testing.T, base string) StatsView {
	t.Helper()
	code, v := getJSON[StatsView](t, base+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	return v
}

func TestGracefulShutdownFinishesAcceptedJobs(t *testing.T) {
	t.Parallel()
	s, err := New(Options{Parallelism: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One running job plus one still queued behind the single worker: the
	// drain must finish both. fig3 (five trainings) keeps the first job
	// running long enough to observe.
	resp1, raw1 := postJSON(t, ts.URL+"/v1/experiments", testRequest("fig3"))
	resp2, raw2 := postJSON(t, ts.URL+"/v1/experiments", testRequest("fig5"))
	if resp1.StatusCode != http.StatusAccepted || resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	var sub1, sub2 submitResponse
	if err := json.Unmarshal(raw1, &sub1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw2, &sub2); err != nil {
		t.Fatal(err)
	}
	waitForState(t, ts.URL, sub1.JobID, JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	for _, id := range []string{sub1.JobID, sub2.JobID} {
		view, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if view.State != JobDone {
			t.Fatalf("job %s state %q after drain (error %q), want done", id, view.State, view.Error)
		}
	}
	// Results stay pollable after the drain.
	raw, view, ok := s.Result(sub1.JobID)
	if !ok || view.State != JobDone || len(raw) == 0 {
		t.Fatalf("drained job result unavailable: ok=%v state=%q len=%d", ok, view.State, len(raw))
	}
	// New submissions are refused and health reflects the drain.
	if _, _, err := s.Submit(testRequest("fig3")); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("submit during drain: %v, want draining error", err)
	}
	code, _ := getJSON[map[string]string](t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain = %d, want 503", code)
	}
}

func TestSubmitValidation(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Workers: 1})

	resp, raw := postJSON(t, ts.URL+"/v1/experiments", SubmitRequest{Experiment: "fig99"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown experiment status %d, want 400", resp.StatusCode)
	}
	for _, id := range harness.ExperimentIDs() {
		if !strings.Contains(string(raw), id) {
			t.Fatalf("rejection does not list valid id %q: %s", id, raw)
		}
	}

	resp, _ = postJSON(t, ts.URL+"/v1/experiments", map[string]any{"experiment": "fig3", "bogus": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status %d, want 400", resp.StatusCode)
	}

	req := testRequest("fig3")
	req.Collective = "butterfly"
	resp, raw = postJSON(t, ts.URL+"/v1/experiments", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown collective status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "hierarchical") {
		t.Fatalf("rejection does not list valid collective names: %s", raw)
	}

	req = testRequest("fig3")
	req.Overlap = "sideways"
	resp, raw = postJSON(t, ts.URL+"/v1/experiments", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown overlap status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "backward") {
		t.Fatalf("rejection does not list valid overlap modes: %s", raw)
	}
}

// TestSubmitRejectsOversizedInput covers the bounds on POST
// /v1/experiments: the body's byte limit and the World and Samples ranges.
func TestSubmitRejectsOversizedInput(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{Workers: 1})
	sized := func(world, samples int) SubmitRequest {
		req := testRequest("fig3")
		req.World, req.Samples = world, samples
		return req
	}
	for _, c := range []struct {
		name string
		body any
		want int
	}{
		{"oversized body", map[string]any{"experiment": strings.Repeat("x", maxSubmitBytes)}, http.StatusRequestEntityTooLarge},
		// A body just under the limit is decoded and reaches validation.
		{"body under the limit", map[string]any{"experiment": strings.Repeat("x", maxSubmitBytes-64)}, http.StatusBadRequest},
		{"huge samples", sized(0, 1<<40), http.StatusBadRequest},
		{"samples one past the maximum", sized(0, MaxSamples+1), http.StatusBadRequest},
		{"negative samples", sized(0, -1), http.StatusBadRequest},
		{"negative world", sized(-2, 0), http.StatusBadRequest},
	} {
		t.Run(c.name, func(t *testing.T) {
			if resp, raw := postJSON(t, ts.URL+"/v1/experiments", c.body); resp.StatusCode != c.want {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, c.want, raw)
			}
		})
	}
	if jobs := s.Stats().Jobs; jobs != (JobCounts{}) {
		t.Fatalf("rejected submissions made jobs: %+v", jobs)
	}
}

// FuzzSubmit posts arbitrary bodies to POST /v1/experiments: every one gets
// 202, 400, 413, 429 or 503, never another status or a panic. Accepted jobs
// fail at once instead of training (the worker swaps their grid for one that
// errors), and the queue holds two, so repeats see 429 as well.
func FuzzSubmit(f *testing.F) {
	valid, err := json.Marshal(testRequest("fig3"))
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{string(valid), "", "{}", "null", "[1]", `{"experiment":"fig3"}{}`,
		`{"experiment":"fig3","bogus":1}`, `{"experiment":"fig3","world":-2}`, `{"experiment":"fig3","samples":1e99}`,
		`{"experiment":"fig3","samples":8193}`, `{"experiment":"fig3","priority":"urgent"}`,
		`{"experiment":"fig3","collective":"butterfly","overlap":"sideways"}`, `{"experiment":` + strings.Repeat(" ", maxSubmitBytes)} {
		f.Add([]byte(body))
	}
	s, err := New(Options{Workers: 1, QueueDepth: 2, Log: io.Discard})
	if err != nil {
		f.Fatal(err)
	}
	s.beforeRun = func(j *job) {
		j.def.Run = func(harness.Options) (harness.Report, error) { return nil, fmt.Errorf("not run") }
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			f.Errorf("shutdown: %v", err)
		}
	})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/experiments", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}

// TestOverlapSubmissionCoalescing covers the overlap dimension of the
// submission key: "none" and the empty default coalesce onto one job, while
// "backward" gets its own.
func TestOverlapSubmissionCoalescing(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})

	// Saturate the single worker so subsequent submissions stay queued and
	// coalescible while we compare their job ids.
	blocker, _ := postJSON(t, ts.URL+"/v1/experiments", testRequest("ablation-tern"))
	if blocker.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit status %d", blocker.StatusCode)
	}
	submit := func(overlap string) submitResponse {
		req := testRequest("ablation-topo")
		req.Overlap = overlap
		resp, raw := postJSON(t, ts.URL+"/v1/experiments", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit(overlap=%q) status %d: %s", overlap, resp.StatusCode, raw)
		}
		var sub submitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	def := submit("")
	none := submit("none")
	if none.JobID != def.JobID || !none.Coalesced {
		t.Fatalf("\"none\" did not coalesce onto the empty default: %+v vs %+v", none, def)
	}
	backward := submit("backward")
	if backward.JobID == def.JobID {
		t.Fatal("backward submission coalesced onto the serialized job")
	}
	if backward.Job.Options.Overlap != "backward" {
		t.Fatalf("job view lost the overlap mode: %+v", backward.Job.Options)
	}
	waitForState(t, ts.URL, backward.JobID, JobDone)
	waitForState(t, ts.URL, def.JobID, JobDone)
}

// TestSchemesEndpointAndCollectiveCoalescing covers the scheme catalog and
// the collective dimension of the submission key: "ring" and the empty
// default coalesce onto one job, while a distinct algorithm gets its own.
func TestSchemesEndpointAndCollectiveCoalescing(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})

	code, schemes := getJSON[[]core.SchemeInfo](t, ts.URL+"/v1/schemes")
	if code != http.StatusOK || len(schemes) != len(core.Schemes()) {
		t.Fatalf("schemes = %d entries (status %d), want %d", len(schemes), code, len(core.Schemes()))
	}
	for i, name := range core.Schemes() {
		if schemes[i].Name != name || schemes[i].Description == "" {
			t.Fatalf("scheme entry %d = %+v, want name %q with a description", i, schemes[i], name)
		}
	}

	// The collective catalog mirrors the scheme catalog's pattern.
	code, algos := getJSON[[]collective.AlgorithmInfo](t, ts.URL+"/v1/collectives")
	if code != http.StatusOK || len(algos) != len(collective.AlgorithmNames()) {
		t.Fatalf("collectives = %d entries (status %d), want %d", len(algos), code, len(collective.AlgorithmNames()))
	}
	for i, name := range collective.AlgorithmNames() {
		if algos[i].Name != name || algos[i].Description == "" {
			t.Fatalf("collective entry %d = %+v, want name %q with a description", i, algos[i], name)
		}
	}

	// Saturate the single worker so subsequent submissions stay queued and
	// coalescible while we compare their job ids. ablation-tern and
	// ablation-topo are the registry's lightest grids (two tiny trainings
	// each, one shared through the engine), keeping the race lane fast.
	blocker, _ := postJSON(t, ts.URL+"/v1/experiments", testRequest("ablation-tern"))
	if blocker.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit status %d", blocker.StatusCode)
	}
	submit := func(collective string) submitResponse {
		req := testRequest("ablation-topo")
		req.Collective = collective
		resp, raw := postJSON(t, ts.URL+"/v1/experiments", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit(collective=%q) status %d: %s", collective, resp.StatusCode, raw)
		}
		var sub submitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	def := submit("")
	ring := submit("ring")
	if ring.JobID != def.JobID || !ring.Coalesced {
		t.Fatalf("\"ring\" did not coalesce onto the empty default: %+v vs %+v", ring, def)
	}
	hier := submit("hierarchical")
	if hier.JobID == def.JobID {
		t.Fatal("hierarchical submission coalesced onto the ring job")
	}
	if hier.Job.Options.Collective != "hierarchical" {
		t.Fatalf("job view lost the collective: %+v", hier.Job.Options)
	}
	waitForState(t, ts.URL, hier.JobID, JobDone)
	waitForState(t, ts.URL, def.JobID, JobDone)
}

func TestQueueFullRejectsSubmission(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	var first submitResponse
	resp, raw := postJSON(t, ts.URL+"/v1/experiments", testRequest("fig3"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	// Once the worker picks up the first job, the depth-1 queue holds one
	// more and rejects the third.
	waitForState(t, ts.URL, first.JobID, JobRunning)
	resp, _ = postJSON(t, ts.URL+"/v1/experiments", testRequest("fig5"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/experiments", testRequest("fig6"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", resp.StatusCode)
	}
}

func TestOperationalEndpoints(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Workers: 1, CacheDir: t.TempDir()})

	code, health := getJSON[map[string]string](t, ts.URL+"/healthz")
	if code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, health)
	}

	code, exps := getJSON[[]experimentView](t, ts.URL+"/v1/experiments")
	if code != http.StatusOK || len(exps) != len(harness.ExperimentIDs()) {
		t.Fatalf("experiments = %d entries (status %d)", len(exps), code)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/experiments", testRequest("ablation-tern"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}

	// An unfinished job's result endpoint reports the state instead.
	httpResp, err := http.Get(ts.URL + "/v1/jobs/" + sub.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode == http.StatusOK {
		// The tiny job may already be done; only a non-terminal state must
		// yield 409.
		if _, view := getJSON[JobView](t, ts.URL+"/v1/jobs/"+sub.JobID); view.State != JobDone {
			t.Fatalf("result for unfinished job returned 200 (state %q)", view.State)
		}
	} else if httpResp.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished result status %d, want 409", httpResp.StatusCode)
	}
	waitForState(t, ts.URL, sub.JobID, JobDone)

	stats := getStats(t, ts.URL)
	if stats.Engine.Trained == 0 || stats.Jobs.Done != 1 {
		t.Fatalf("stats after job: %+v", stats)
	}
	if stats.SimSecondsServed <= 0 {
		t.Fatalf("sim seconds served = %v, want > 0", stats.SimSecondsServed)
	}
	if len(stats.RecentEvents) == 0 {
		t.Fatal("no recent events surfaced")
	}

	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"pactrain_engine_trainings_total",
		"pactrain_serve_jobs_done_total 1",
		"pactrain_serve_sim_seconds_served_total",
		"# TYPE pactrain_serve_jobs_running gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	code, jobs := getJSON[[]JobView](t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || len(jobs) != 1 || jobs[0].ID != sub.JobID {
		t.Fatalf("jobs listing = %+v (status %d)", jobs, code)
	}

	code, _ = getJSON[map[string]string](t, ts.URL+"/v1/jobs/nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", code)
	}
}

// TestHistoryEviction bounds the server's memory: finished job records
// (report bytes included) are evicted oldest-first past HistoryLimit.
func TestHistoryEviction(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Workers: 1, HistoryLimit: 1})

	ids := make([]string, 2)
	for i, exp := range []string{"ablation-tern", "fig5"} {
		resp, raw := postJSON(t, ts.URL+"/v1/experiments", testRequest(exp))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		var sub submitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		ids[i] = sub.JobID
		waitForState(t, ts.URL, sub.JobID, JobDone)
	}

	code, _ := getJSON[map[string]string](t, ts.URL+"/v1/jobs/"+ids[0])
	if code != http.StatusNotFound {
		t.Fatalf("evicted job status %d, want 404", code)
	}
	code, jobs := getJSON[[]JobView](t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || len(jobs) != 1 || jobs[0].ID != ids[1] {
		t.Fatalf("retained jobs = %+v (status %d), want only %s", jobs, code, ids[1])
	}
}

// TestFailedJobSurfacesError submits a grid that cannot train (world
// larger than the simulated fabric) and checks the failure is observable.
func TestFailedJobSurfacesError(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{Workers: 1})

	req := SubmitRequest{Experiment: "fig3", Quick: true, World: 99, Samples: 64, Seed: 5}
	view, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		v, ok := s.Job(view.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if v.State == JobFailed {
			if v.Error == "" {
				t.Fatal("failed job carries no error")
			}
			break
		}
		if v.State == JobDone {
			t.Fatal("oversized world unexpectedly trained")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result", ts.URL, view.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed job result status %d, want 500", resp.StatusCode)
	}
}

// TestPeerServedCellsAreCounted runs one job on an instance, then the same
// job on a second instance peered with the first: every cell the first
// trained reaches the second as a peer hit, and the second job's progress,
// sim_seconds_served and job_sim account for each of them as delivered.
func TestPeerServedCellsAreCounted(t *testing.T) {
	t.Parallel()
	owner, ownerTS := newTestServer(t, Options{})
	asker, askerTS := newTestServer(t, Options{CachePeers: []string{ownerTS.URL}})
	run := func(s *Server, base string) (JobView, float64) {
		view, _, err := s.Submit(testRequest("ablation-tern"))
		if err != nil {
			t.Fatal(err)
		}
		view = waitForState(t, base, view.ID, JobDone)
		s.mu.Lock()
		defer s.mu.Unlock()
		return view, s.jobs[view.ID].simSeconds
	}
	trained, trainedSim := run(owner, ownerTS.URL)
	served, servedSim := run(asker, askerTS.URL)

	want := trained.Progress
	want.PeerHits, want.Trained = want.Trained, 0
	want.LastEvent = served.Progress.LastEvent
	if want.PeerHits == 0 || served.Progress != want {
		t.Fatalf("peer-served job progress %+v, want %+v (the owner's was %+v)",
			served.Progress, want, trained.Progress)
	}
	if math.Abs(servedSim-trainedSim) > 1e-9*trainedSim || trainedSim <= 0 {
		t.Fatalf("peer-served job_sim %v, trained %v", servedSim, trainedSim)
	}
	if got := asker.Stats().SimSecondsServed; got != servedSim {
		t.Fatalf("sim_seconds_served %v, want the job's %v", got, servedSim)
	}
}
