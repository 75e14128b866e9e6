package engine

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pactrain/internal/core"
)

// eventRecorder collects events from concurrent scheduling goroutines.
type eventRecorder struct {
	mu  sync.Mutex
	evs []Event
}

func (r *eventRecorder) record(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = append(r.evs, ev)
}

func (r *eventRecorder) count(kind EventKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func TestEventsCoverSubmissionLifecycle(t *testing.T) {
	t.Parallel()
	var rec eventRecorder
	e := New(Options{Parallelism: 2, OnEvent: rec.record})
	jobs := []Job{
		{Label: "fig3 a", Config: testConfig("all-reduce")},
		{Label: "fig3 b", Config: testConfig("all-reduce")},
		{Label: "fig3 c", Config: testConfig("fp16")},
	}
	if _, err := e.RunAll(jobs); err != nil {
		t.Fatal(err)
	}
	if got := rec.count(EventSubmitted); got != 3 {
		t.Fatalf("submitted events = %d, want 3", got)
	}
	if got := rec.count(EventTrainStart); got != 2 {
		t.Fatalf("train-start events = %d, want 2", got)
	}
	if got := rec.count(EventTrainDone); got != 2 {
		t.Fatalf("train-done events = %d, want 2", got)
	}
	if got := rec.count(EventDeduped); got != 1 {
		t.Fatalf("deduped events = %d, want 1", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, ev := range rec.evs {
		if ev.Fingerprint == "" || ev.Label == "" {
			t.Fatalf("event missing identity: %+v", ev)
		}
		switch ev.Kind {
		case EventTrainDone, EventDeduped:
			if ev.Err == "" && ev.SimSeconds <= 0 {
				t.Fatalf("%s event carries no simulated time: %+v", ev.Kind, ev)
			}
		}
	}
}

func TestEventsReportTrainingFailure(t *testing.T) {
	t.Parallel()
	var rec eventRecorder
	e := New(Options{OnEvent: rec.record})
	if _, err := e.Run(Job{Label: "bad", Config: testConfig("no-such-scheme")}); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	found := false
	for _, ev := range rec.evs {
		if ev.Kind == EventTrainDone {
			found = true
			if ev.Err == "" {
				t.Fatalf("failed training emitted no error: %+v", ev)
			}
		}
	}
	if !found {
		t.Fatal("no train-done event for failed job")
	}
}

func TestCacheHitEmitsEvent(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	job := Job{Label: "seed", Config: testConfig("all-reduce")}
	warm := New(Options{CacheDir: dir})
	if _, err := warm.Run(job); err != nil {
		t.Fatal(err)
	}
	var rec eventRecorder
	cold := New(Options{CacheDir: dir, OnEvent: rec.record})
	if _, err := cold.Run(job); err != nil {
		t.Fatal(err)
	}
	if got := rec.count(EventCacheHit); got != 1 {
		t.Fatalf("cache-hit events = %d, want 1", got)
	}
	if got := rec.count(EventTrainStart); got != 0 {
		t.Fatalf("train-start events = %d, want 0", got)
	}
}

func TestSweepRemovesStaleAndCorruptEntries(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c := NewCache(dir)

	// A valid entry, written through the real path.
	if err := c.Store("valid", testResult()); err != nil {
		t.Fatal(err)
	}
	// A version-skewed entry, a corrupt entry, and an orphaned temp file.
	writeFile(t, filepath.Join(dir, "stale.json"), `{"version":0,"result":{}}`)
	writeFile(t, filepath.Join(dir, "corrupt.json"), `{"version":1,`)
	writeFile(t, filepath.Join(dir, "orphan.tmp-12345"), "partial")
	// Temp files younger than sweepTmpGrace may have a live writer behind
	// them; backdate the orphan so the sweep treats it as abandoned, and
	// leave a fresh one that must survive.
	old := time.Now().Add(-2 * sweepTmpGrace)
	if err := os.Chtimes(filepath.Join(dir, "orphan.tmp-12345"), old, old); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "live.tmp-67890"), "in flight")
	// A foreign file the sweep must leave alone.
	writeFile(t, filepath.Join(dir, "README"), "not a cache entry")

	sr, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Scanned != 5 || sr.Swept != 3 || sr.Kept != 2 {
		t.Fatalf("sweep %+v, want 5 scanned / 3 swept / 2 kept", sr)
	}
	if _, ok := c.Load("valid"); !ok {
		t.Fatal("sweep removed the valid entry")
	}
	for _, gone := range []string{"stale.json", "corrupt.json", "orphan.tmp-12345"} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("%s survived the sweep", gone)
		}
	}
	for _, kept := range []string{"README", "live.tmp-67890"} {
		if _, err := os.Stat(filepath.Join(dir, kept)); err != nil {
			t.Fatalf("sweep removed %s", kept)
		}
	}

	// Idempotent: a second sweep finds the kept entry and the live temp.
	sr, err = c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Scanned != 2 || sr.Swept != 0 || sr.Kept != 2 {
		t.Fatalf("second sweep %+v, want 2 scanned / 0 swept / 2 kept", sr)
	}
}

func TestSweepMissingDirIsNoop(t *testing.T) {
	t.Parallel()
	c := NewCache(filepath.Join(t.TempDir(), "never-created"))
	sr, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sr != (SweepResult{}) {
		t.Fatalf("sweep of missing dir %+v, want zero", sr)
	}
}

func TestEngineSweepCacheWithoutCache(t *testing.T) {
	t.Parallel()
	e := New(Options{})
	sr, err := e.SweepCache()
	if err != nil {
		t.Fatal(err)
	}
	if sr != (SweepResult{}) {
		t.Fatalf("cacheless sweep %+v, want zero", sr)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// testResult trains the tiny config once per process for cache fixtures.
var testResult = sync.OnceValue(func() *core.Result {
	e := New(Options{})
	res, err := e.Run(Job{Label: "fixture", Config: testConfig("all-reduce")})
	if err != nil {
		panic(err)
	}
	return res
})

// TestEventProgressRelaysHeartbeats checks that a training with an event
// observer emits EventProgress heartbeats carrying the core.Progress
// payload, and that a caller-installed OnProgress keeps firing too.
func TestEventProgressRelaysHeartbeats(t *testing.T) {
	t.Parallel()
	var rec eventRecorder
	e := New(Options{Parallelism: 1, OnEvent: rec.record})
	cfg := testConfig("all-reduce")
	callerBeats := 0
	cfg.OnProgress = func(core.Progress) { callerBeats++ }
	if _, err := e.Run(Job{Label: "progress", Config: cfg}); err != nil {
		t.Fatal(err)
	}
	got := rec.count(EventProgress)
	if got == 0 {
		t.Fatal("no EventProgress emitted")
	}
	if callerBeats != got {
		t.Fatalf("caller callback fired %d times, observer saw %d heartbeats", callerBeats, got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, ev := range rec.evs {
		if ev.Kind != EventProgress {
			continue
		}
		if ev.Progress == nil || ev.Progress.Iter == 0 || ev.SimSeconds != ev.Progress.SimSeconds {
			t.Fatalf("malformed progress event: %+v", ev)
		}
	}
}

// TestEventCacheHitCarriesAge checks that serving from the on-disk cache
// stamps the event with the entry's age.
func TestEventCacheHitCarriesAge(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := testConfig("all-reduce")
	if _, err := New(Options{Parallelism: 1, CacheDir: dir}).Run(Job{Label: "warm", Config: cfg}); err != nil {
		t.Fatal(err)
	}
	// Backdate the entry so the age is unambiguous.
	fp := cfg.Fingerprint()
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, fp+".json"), old, old); err != nil {
		t.Fatal(err)
	}
	var rec eventRecorder
	if _, err := New(Options{Parallelism: 1, CacheDir: dir, OnEvent: rec.record}).Run(Job{Label: "hit", Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if rec.count(EventCacheHit) != 1 {
		t.Fatal("expected one cache-hit event")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, ev := range rec.evs {
		if ev.Kind == EventCacheHit && (ev.CacheAgeSeconds < 3500 || ev.CacheAgeSeconds > 7200) {
			t.Fatalf("cache hit age %v s, want ≈ 3600", ev.CacheAgeSeconds)
		}
	}
}

// TestWithObserverDeliversOnlyOwnEvents checks the view contract: two views
// of one engine share the memo and the counters (the second submission of a
// config deduplicates onto the first's training), yet each observer sees
// exactly the events of the jobs submitted through its own view, and the
// engine-wide Options.OnEvent observer sees none of them.
func TestWithObserverDeliversOnlyOwnEvents(t *testing.T) {
	t.Parallel()
	var root, a, b eventRecorder
	e := New(Options{Parallelism: 1, OnEvent: root.record})
	va, vb := e.WithObserver(a.record), e.WithObserver(b.record)
	cfg := testConfig("all-reduce")
	if _, err := va.Run(Job{Label: "a", Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if _, err := vb.Run(Job{Label: "b", Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if a.count(EventSubmitted) != 1 || a.count(EventTrainDone) != 1 || a.count(EventProgress) == 0 || a.count(EventDeduped) != 0 {
		t.Fatalf("view a saw %+v", a.evs)
	}
	if len(b.evs) != 2 || b.count(EventSubmitted) != 1 || b.count(EventDeduped) != 1 {
		t.Fatalf("view b saw %+v, want its own submitted + deduped only", b.evs)
	}
	for label, rec := range map[string]*eventRecorder{"a": &a, "b": &b} {
		for _, ev := range rec.evs {
			if ev.Label != label {
				t.Fatalf("view %s received another view's event: %+v", label, ev)
			}
		}
	}
	if len(root.evs) != 0 {
		t.Fatalf("engine-wide observer saw %d events of view submissions", len(root.evs))
	}
	if st := e.Stats(); st.Submitted != 2 || st.Trained != 1 || st.Deduped != 1 || st != vb.Stats() {
		t.Fatalf("views do not share counters: engine %+v, view %+v", st, vb.Stats())
	}
}
