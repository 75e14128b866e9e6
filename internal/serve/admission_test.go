package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"pactrain/internal/harness"
)

// TestJobQueuePriorityOrder: pops serve the high level first, submission
// order within a level, and promote moves a queued low job up.
func TestJobQueuePriorityOrder(t *testing.T) {
	t.Parallel()
	var q jobQueue
	lo1 := &job{id: "lo1", priority: PriorityLow}
	lo2 := &job{id: "lo2", priority: PriorityLow}
	hi1 := &job{id: "hi1", priority: PriorityHigh}
	q.push(lo1)
	q.push(hi1)
	q.push(lo2)
	if q.depth() != 3 {
		t.Fatalf("depth %d, want 3", q.depth())
	}
	if !q.promote(lo2) {
		t.Fatal("promote(lo2) failed")
	}
	if lo2.priority != PriorityHigh {
		t.Fatal("promotion did not update the job's priority")
	}
	if q.promote(hi1) {
		t.Fatal("promote of an already-high job must be a no-op")
	}
	var got []string
	for j := q.pop(); j != nil; j = q.pop() {
		got = append(got, j.id)
	}
	want := []string{"hi1", "lo2", "lo1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestInferPriority pins the inference table: recost-only and quick jump
// the queue, fabric-sensitive and full grids yield.
func TestInferPriority(t *testing.T) {
	t.Parallel()
	get := func(id string) harness.Definition {
		def, ok := harness.ExperimentByID(id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		return def
	}
	for _, tc := range []struct {
		exp   string
		quick bool
		want  Priority
	}{
		{"largescale", false, PriorityHigh}, // recost-only: trains nothing
		{"adaptive", true, PriorityLow},     // fabric-sensitive beats quick
		{"fig3", true, PriorityHigh},
		{"fig3", false, PriorityLow},
	} {
		if got := inferPriority(get(tc.exp), tc.quick); got != tc.want {
			t.Errorf("inferPriority(%s, quick=%t) = %s, want %s", tc.exp, tc.quick, got, tc.want)
		}
	}
	if _, _, err := parsePriority("urgent"); err == nil {
		t.Fatal("parsePriority accepted an unknown level")
	}
}

// TestDrainEstimator: the EWMA tracks completions and the Retry-After
// estimate scales with queue depth under clamps.
func TestDrainEstimator(t *testing.T) {
	t.Parallel()
	var d drainEstimator
	if got := d.retryAfter(5); got != 6 {
		t.Fatalf("cold retryAfter(5) = %d, want 6 (1 job/s default)", got)
	}
	base := time.Now()
	for i := range 5 {
		d.observe(base.Add(time.Duration(i) * 2 * time.Second)) // 0.5 jobs/s
	}
	if d.rate < 0.45 || d.rate > 0.55 {
		t.Fatalf("rate %.3f, want ≈ 0.5", d.rate)
	}
	if got := d.retryAfter(4); got != 10 {
		t.Fatalf("retryAfter(4) at 0.5/s = %d, want 10", got)
	}
	if got := d.retryAfter(100000); got != 600 {
		t.Fatalf("retryAfter must clamp to 600, got %d", got)
	}
}

// TestRateLimiterBuckets: per-client accounting, refill, bounded table.
func TestRateLimiterBuckets(t *testing.T) {
	t.Parallel()
	rl := newRateLimiter(1, 2) // 1 token/s, burst 2
	now := time.Now()
	for i := range 2 {
		if ok, _ := rl.allow("a", now); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait := rl.allow("a", now)
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if wait < 1 {
		t.Fatalf("denied request advises %ds, want >= 1", wait)
	}
	// Another client is unaffected.
	if ok, _ := rl.allow("b", now); !ok {
		t.Fatal("independent client denied")
	}
	// One second refills one token.
	if ok, _ := rl.allow("a", now.Add(time.Second)); !ok {
		t.Fatal("refilled token denied")
	}
	// Disabled limiter admits everything.
	if off := newRateLimiter(0, 5); off != nil {
		t.Fatal("rate 0 must disable the limiter")
	}
}

// TestQueueFull429CarriesRetryAfter: the satellite contract — every
// queue-full 429 advises a backoff derived from the drain estimate.
func TestQueueFull429CarriesRetryAfter(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	holdWorker(t, s)

	// The blocker holds the single worker; the queue fillers are recost-only
	// largescale runs with distinct seeds, which cost nothing once they
	// eventually run.
	var first submitResponse
	resp, raw := postJSON(t, ts.URL+"/v1/experiments", testRequest("ablation-tern"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	waitForState(t, ts.URL, first.JobID, JobRunning)
	filler := testRequest("largescale")
	filler.Seed = 11
	if resp, _ = postJSON(t, ts.URL+"/v1/experiments", filler); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d", resp.StatusCode)
	}
	filler.Seed = 12
	resp, _ = postJSON(t, ts.URL+"/v1/experiments", filler)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("queue-full 429 Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
}

// TestRateLimit429CarriesRetryAfter: a client that exhausts its bucket is
// rejected before parsing, with a Retry-After; a distinct client id is
// admitted; /v1/stats counts the rejection.
func TestRateLimit429CarriesRetryAfter(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Options{Workers: 2, RateLimit: 0.001, RateBurst: 2})

	post := func(client string) *http.Response {
		raw, err := json.Marshal(testRequest("largescale"))
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/experiments", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-Id", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for i := range 2 {
		if resp := post("alice"); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst request %d status %d", i, resp.StatusCode)
		}
	}
	resp := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("rate-limit 429 Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	// A different client has its own bucket.
	if resp := post("bob"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("independent client status %d", resp.StatusCode)
	}
	code, stats := getJSON[StatsView](t, ts.URL+"/v1/stats")
	if code != http.StatusOK || stats.RateLimited != 1 {
		t.Fatalf("stats rate_limited = %d (status %d), want 1", stats.RateLimited, code)
	}
}

// TestPriorityOverrideAndPromotion: an explicit priority override sticks,
// an invalid one 400s, and a high-priority twin promotes its queued
// low-priority job.
func TestPriorityOverrideAndPromotion(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})

	// Invalid override is a 400.
	bad := testRequest("fig3")
	bad.Priority = "urgent"
	if resp, _ := postJSON(t, ts.URL+"/v1/experiments", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid priority status %d, want 400", resp.StatusCode)
	}

	// Occupy the single worker so later submissions stay queued.
	release := holdWorker(t, s)
	blocker, _, err := s.Submit(testRequest("ablation-tern"))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, ts.URL, blocker.ID, JobRunning)

	// A recost-only submission would infer high; an explicit low sticks.
	low := testRequest("largescale")
	low.Priority = string(PriorityLow)
	lowView, _, err := s.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	if lowView.Priority != PriorityLow {
		t.Fatalf("explicit low override produced %q", lowView.Priority)
	}

	// An identical high-priority twin coalesces and promotes the queued job.
	promo := low
	promo.Priority = string(PriorityHigh)
	promoView, coalesced, err := s.Submit(promo)
	if err != nil {
		t.Fatal(err)
	}
	if !coalesced || promoView.ID != lowView.ID {
		t.Fatalf("twin did not coalesce (id %s vs %s)", promoView.ID, lowView.ID)
	}
	if promoView.Priority != PriorityHigh {
		t.Fatalf("coalescing twin left priority %q, want promotion to high", promoView.Priority)
	}

	// Both queued-state views and the stats gauge agree on the queue split.
	code, stats := getJSON[StatsView](t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Queue.High != 1 || stats.Queue.Low != 0 {
		t.Fatalf("queue split %+v, want 1 high / 0 low", stats.Queue)
	}
	release()
	waitForState(t, ts.URL, lowView.ID, JobDone)
}

// holdWorker parks every job of s on its worker, marked running, until the
// returned release is called or the test ends (before s shuts down), so a
// test's blocker stays running however fast it would train.
func holdWorker(t *testing.T, s *Server) (release func()) {
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	s.beforeRun = func(*job) { <-gate }
	return release
}
