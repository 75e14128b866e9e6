package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	ID    int
	Event string
	Data  string
}

// readSSE consumes an event stream until the server closes it (terminal
// job) and returns the frames; keepalive comments are skipped.
func readSSE(t *testing.T, url string, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events stream content type %q", ct)
	}

	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Event != "" || cur.Data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ":"):
			// keepalive comment
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.ID)
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestJobEventStream follows one job live from submission to completion:
// the stream replays the queued transition, then delivers running, engine
// activity, trainer heartbeats, and a terminal done frame, with strictly
// increasing event ids, and then closes.
func TestJobEventStream(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Parallelism: 2, Workers: 1})

	resp, raw := postJSON(t, ts.URL+"/v1/experiments", testRequest("ablation-tern"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}

	frames := readSSE(t, ts.URL+"/v1/jobs/"+sub.JobID+"/events", "")
	if len(frames) == 0 {
		t.Fatal("empty event stream")
	}
	states := map[JobState]bool{}
	progressBeats := 0
	for i, f := range frames {
		if f.ID != i+1 {
			t.Fatalf("frame %d has id %d, want %d (ids must be dense from 1)", i, f.ID, i+1)
		}
		var p EventPayload
		if err := json.Unmarshal([]byte(f.Data), &p); err != nil {
			t.Fatalf("frame %d data is not an EventPayload: %v\n%s", i, err, f.Data)
		}
		if p.Job != sub.JobID {
			t.Fatalf("frame %d names job %q, want %q", i, p.Job, sub.JobID)
		}
		if p.Type != f.Event {
			t.Fatalf("frame %d: event name %q, payload type %q", i, f.Event, p.Type)
		}
		if p.Type == "state" {
			states[p.State] = true
		}
		if p.Type == "progress" {
			if p.Progress == nil || p.Progress.Iter <= 0 {
				t.Fatalf("progress frame carries no heartbeat: %s", f.Data)
			}
			progressBeats++
		}
	}
	for _, want := range []JobState{JobQueued, JobRunning, JobDone} {
		if !states[want] {
			t.Fatalf("stream never delivered state %q (got %v)", want, states)
		}
	}
	if progressBeats == 0 {
		t.Fatal("stream delivered no trainer heartbeats")
	}
	last := frames[len(frames)-1]
	var terminal EventPayload
	if err := json.Unmarshal([]byte(last.Data), &terminal); err != nil {
		t.Fatal(err)
	}
	if terminal.Type != "state" || terminal.State != JobDone {
		t.Fatalf("stream did not end on the done transition: %s", last.Data)
	}
}

// TestConcurrentSameExperimentJobsKeepOwnEvents pins per-job event
// delivery: two jobs of one experiment running side by side (different
// seeds, so they do not coalesce) each count, stream, and total exactly the
// engine events of the grid cells their own run submitted — never each
// other's.
func TestConcurrentSameExperimentJobsKeepOwnEvents(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Parallelism: 2, Workers: 2})

	var ids []string
	for _, seed := range []uint64{11, 12} {
		req := testRequest("ablation-tern")
		req.Seed = seed
		resp, raw := postJSON(t, ts.URL+"/v1/experiments", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		var sub submitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sub.JobID)
	}
	prints := map[string]string{} // fingerprint -> the job that streamed it
	for _, id := range ids {
		view := waitForState(t, ts.URL, id, JobDone)
		if view.Progress.Submitted != 2 || view.Progress.Trained != 2 {
			t.Fatalf("job %s progress %+v, want submitted == trained == 2", id, view.Progress)
		}
		for _, f := range readSSE(t, ts.URL+"/v1/jobs/"+id+"/events", "") {
			var p EventPayload
			if err := json.Unmarshal([]byte(f.Data), &p); err != nil {
				t.Fatal(err)
			}
			if p.Fingerprint == "" {
				continue
			}
			if other, seen := prints[p.Fingerprint]; seen && other != id {
				t.Fatalf("fingerprint %s streamed to both %s and %s", p.Fingerprint, other, id)
			}
			prints[p.Fingerprint] = id
		}
	}
	if len(prints) != 4 {
		t.Fatalf("%d distinct fingerprints streamed, want 4 (two per job)", len(prints))
	}
}

// TestSSELastEventIDReplay pins exact resume: reconnecting with
// Last-Event-ID must deliver precisely the frames after that id,
// byte-identical to the original stream's suffix, and a finished job's
// stream closes right after replay.
func TestSSELastEventIDReplay(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Parallelism: 2, Workers: 1})

	resp, raw := postJSON(t, ts.URL+"/v1/experiments", testRequest("fig5"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitForState(t, ts.URL, sub.JobID, JobDone)

	url := ts.URL + "/v1/jobs/" + sub.JobID + "/events"
	full := readSSE(t, url, "")
	if len(full) < 3 {
		t.Fatalf("only %d frames buffered", len(full))
	}

	// Resume from the middle: the suffix must match the full stream's,
	// frame for frame and byte for byte.
	cut := len(full) / 2
	resumed := readSSE(t, url, fmt.Sprint(full[cut-1].ID))
	if len(resumed) != len(full)-cut {
		t.Fatalf("resume after id %d returned %d frames, want %d", full[cut-1].ID, len(resumed), len(full)-cut)
	}
	for i, f := range resumed {
		want := full[cut+i]
		if f != want {
			t.Fatalf("resumed frame %d = %+v, want %+v", i, f, want)
		}
	}

	// Resuming past the last id yields an empty, immediately closed stream.
	if tail := readSSE(t, url, fmt.Sprint(full[len(full)-1].ID)); len(tail) != 0 {
		t.Fatalf("resume past the end returned %d frames", len(tail))
	}

	notFound, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	notFound.Body.Close()
	if notFound.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job stream status %d, want 404", notFound.StatusCode)
	}
}

// TestStatsMetricsStayCoherent pins the divergence fix: after history
// eviction drops finished job records, /v1/stats and /metrics must both
// still report every completion, and the completion histograms must have
// observed each job exactly once.
func TestStatsMetricsStayCoherent(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Workers: 1, HistoryLimit: 1})

	for _, exp := range []string{"ablation-tern", "fig5"} {
		resp, raw := postJSON(t, ts.URL+"/v1/experiments", testRequest(exp))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		var sub submitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		waitForState(t, ts.URL, sub.JobID, JobDone)
	}

	stats := getStats(t, ts.URL)
	if stats.Jobs.Done != 2 {
		t.Fatalf("stats.Jobs.Done = %d after eviction, want 2 (lifetime total)", stats.Jobs.Done)
	}

	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	text := body.String()
	for _, want := range []string{
		"pactrain_serve_jobs_done_total 2",
		"pactrain_serve_jobs_queued 0",
		"# TYPE pactrain_serve_queue_depth gauge",
		"# TYPE pactrain_serve_job_wall_seconds histogram",
		"pactrain_serve_job_wall_seconds_count 2",
		"pactrain_serve_job_sim_seconds_count 2",
		"pactrain_serve_job_sim_seconds_bucket{le=\"+Inf\"} 2",
		"# TYPE pactrain_engine_cache_hit_age_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "pactrain_serve_job_sim_seconds_sum 0\n") {
		t.Fatal("job_sim histogram observed no simulated seconds")
	}
}

// TestMetricsHeaderPinned holds /metrics to the instrument names, help
// strings, types and order recorded before the scalar instruments became
// one table (testdata/metrics_header.txt): dashboards and scrapers key on
// them.
func TestMetricsHeaderPinned(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var header []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "# ") {
			header = append(header, sc.Text())
		}
	}
	want, err := os.ReadFile("testdata/metrics_header.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(header, "\n"); got != string(want) {
		t.Fatalf("/metrics header moved:\n%s\nwant:\n%s", got, want)
	}
}

// syncBuffer collects log output across goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJSONLogFormat runs a job under -log-format json and checks the log is
// pure machine-readable: every line is an EventPayload (the SSE schema),
// lifecycle and heartbeats included, with no free-form text interleaved.
func TestJSONLogFormat(t *testing.T) {
	t.Parallel()
	logBuf := &syncBuffer{}
	s, err := New(Options{Workers: 1, Log: logBuf, LogFormat: "json"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postJSON(t, ts.URL+"/v1/experiments", testRequest("ablation-tern"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	waitForState(t, ts.URL, sub.JobID, JobDone)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	var sawDone, sawProgress bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if line == "" {
			continue
		}
		var p EventPayload
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("log line is not an EventPayload: %v\n%s", err, line)
		}
		if p.Type == "" {
			t.Fatalf("log line has no type: %s", line)
		}
		if p.Type == "state" && p.State == JobDone {
			sawDone = true
		}
		if p.Type == "progress" && p.Progress != nil {
			sawProgress = true
		}
	}
	if !sawDone {
		t.Fatal("json log never recorded the done transition")
	}
	if !sawProgress {
		t.Fatal("json log carried no trainer heartbeats")
	}
}

// FuzzEventsResume pins Last-Event-ID resume for any header value: a finished
// job's stream replays exactly the frames after min(n, last) when the value is
// a decimal id n, and every frame when it is anything else (empty, negative,
// overflowing, padded, non-decimal) — byte for byte the full stream's suffix,
// with no gap and no duplicate.
func FuzzEventsResume(f *testing.F) {
	// The seed corpus (testdata/fuzz/FuzzEventsResume) holds the edges: ids
	// 0, 1, the last and past it, and the non-ids above.
	s, err := New(Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	})
	const id, last = "resume", 41
	j := &job{id: id, state: JobRunning}
	s.mu.Lock()
	s.jobs[id] = j
	for i := range last - 1 {
		s.publishLocked(j, EventPayload{Type: "progress", Label: fmt.Sprint("cell ", i)})
	}
	j.state = JobDone
	s.publishLocked(j, EventPayload{Type: "state", State: JobDone})
	s.mu.Unlock()

	h := s.Handler()
	stream := func(lastEventID string) []string {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			f.Fatalf("events stream status %d", rec.Code)
		}
		frames := strings.SplitAfter(rec.Body.String(), "\n\n")
		return frames[:len(frames)-1] // the empty string after the last frame
	}
	full := stream("")
	if len(full) != last {
		f.Fatalf("full stream has %d frames, want %d", len(full), last)
	}
	for i, fr := range full {
		if !strings.HasPrefix(fr, fmt.Sprintf("id: %d\n", i+1)) {
			f.Fatalf("frame %d is %q", i, fr)
		}
	}
	f.Fuzz(func(t *testing.T, lastEventID string) {
		after := 0
		if n, err := strconv.Atoi(lastEventID); err == nil && n > 0 {
			after = min(n, last)
		}
		got := stream(lastEventID)
		if !slices.Equal(got, full[after:]) {
			t.Fatalf("Last-Event-ID %q replayed %d frames, want the %d after id %d", lastEventID, len(got), last-after, after)
		}
	})
}
