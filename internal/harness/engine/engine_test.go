package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"pactrain/internal/core"
)

// testConfig is a tiny fast run used across the engine tests.
func testConfig(scheme string) core.Config {
	cfg := core.DefaultConfig("MLP", scheme)
	cfg.World = 2
	cfg.Epochs = 1
	cfg.Data.Samples = 64
	cfg.TestSamples = 32
	return cfg
}

func TestRunAllDeduplicatesIdenticalJobs(t *testing.T) {
	t.Parallel()
	var log bytes.Buffer
	e := New(Options{Parallelism: 4, Log: &log})
	jobs := []Job{
		{Label: "a", Config: testConfig("all-reduce")},
		{Label: "b", Config: testConfig("all-reduce")},
		{Label: "c", Config: testConfig("fp16")},
		{Label: "d", Config: testConfig("all-reduce")},
	}
	results, err := e.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	// Deduplicated submissions share the identical Result pointer.
	if results[0] != results[1] || results[0] != results[3] {
		t.Fatal("identical jobs did not share a result")
	}
	if results[0] == results[2] {
		t.Fatal("distinct jobs shared a result")
	}
	s := e.Stats()
	if s.Submitted != 4 || s.Trained != 2 || s.Deduped != 2 {
		t.Fatalf("stats %+v, want 4 submitted / 2 trained / 2 deduped", s)
	}
	if !strings.Contains(log.String(), "deduplicated") {
		t.Fatalf("dedup not observable in progress log:\n%s", log.String())
	}
}

func TestRunSharesAcrossSequentialSubmissions(t *testing.T) {
	t.Parallel()
	e := New(Options{})
	r1, err := e.Run(Job{Label: "first", Config: testConfig("all-reduce")})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(Job{Label: "second", Config: testConfig("all-reduce")})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("completed job was re-trained on resubmission")
	}
	if s := e.Stats(); s.Trained != 1 || s.Deduped != 1 {
		t.Fatalf("stats %+v, want 1 trained / 1 deduped", s)
	}
}

func TestRunErrorNotCached(t *testing.T) {
	t.Parallel()
	e := New(Options{})
	bad := testConfig("no-such-scheme")
	if _, err := e.Run(Job{Label: "bad", Config: bad}); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
	// A failed fingerprint must not poison the key: a corrected config with
	// the same fingerprint cannot exist, but resubmitting the same bad job
	// must re-attempt rather than hang on a closed call.
	if _, err := e.Run(Job{Label: "bad again", Config: bad}); err == nil {
		t.Fatal("expected error on resubmission")
	}
	if s := e.Stats(); s.Trained != 0 {
		t.Fatalf("failed validations counted as trainings: %+v", s)
	}
}

// TestCacheRoundTripExact is the cache-correctness contract: a Result
// loaded from the on-disk cache must be indistinguishable from the freshly
// trained one — identical curve, clock, communication log, and summary
// statistics — so cached and fresh invocations render byte-identical
// reports.
func TestCacheRoundTripExact(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	fresh := New(Options{CacheDir: dir})
	job := Job{Label: "seed", Config: testConfig("pactrain-ternary")}
	want, err := fresh.Run(job)
	if err != nil {
		t.Fatal(err)
	}

	reload := New(Options{CacheDir: dir})
	got, err := reload.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if s := reload.Stats(); s.CacheHits != 1 || s.Trained != 0 {
		t.Fatalf("expected pure cache hit, got %+v", s)
	}

	// WallSeconds is the recorded process's wall clock; everything else
	// must round-trip exactly (encoding/json preserves float64 bit
	// patterns for finite values).
	wantCp, gotCp := *want, *got
	wantCp.WallSeconds, gotCp.WallSeconds = 0, 0
	if !reflect.DeepEqual(&wantCp, &gotCp) {
		wj, _ := json.Marshal(wantCp)
		gj, _ := json.Marshal(gotCp)
		t.Fatalf("cached result differs from fresh:\nfresh:  %s\ncached: %s", wj, gj)
	}
}

// TestMemoLimitEvictsThroughDiskCache covers the bounded singleflight memo
// (DESIGN.md §6 named this as future work): once an entry's Result is on
// disk, MemoLimit may evict it from memory, and a re-query round-trips
// through the disk cache byte-identically instead of retraining.
func TestMemoLimitEvictsThroughDiskCache(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	e := New(Options{CacheDir: dir, MemoLimit: 1})

	jobA := Job{Label: "a", Config: testConfig("all-reduce")}
	jobB := Job{Label: "b", Config: testConfig("fp16")}
	first, err := e.Run(jobA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(jobB); err != nil { // evicts jobA's memo entry
		t.Fatal(err)
	}

	again, err := e.Run(jobA)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Trained != 2 || s.CacheHits != 1 || s.Deduped != 0 {
		t.Fatalf("stats %+v, want 2 trained / 1 cache hit / 0 deduped", s)
	}
	if first == again {
		t.Fatal("evicted entry returned the in-memory pointer, not the disk copy")
	}
	// Byte-identical round trip (WallSeconds is the recorded process's wall
	// clock, zeroed on both store and load).
	firstCp := *first
	firstCp.WallSeconds = 0
	wj, err := json.Marshal(&firstCp)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("disk round trip not byte-identical:\nfresh: %s\ndisk:  %s", wj, gj)
	}
}

// TestMemoLimitPinsUnpersistedEntries: without a disk cache nothing is
// evictable — the memo is the only copy — so the limit must not discard
// work.
func TestMemoLimitPinsUnpersistedEntries(t *testing.T) {
	t.Parallel()
	e := New(Options{MemoLimit: 1})
	jobA := Job{Label: "a", Config: testConfig("all-reduce")}
	if _, err := e.Run(jobA); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Job{Label: "b", Config: testConfig("fp16")}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(jobA); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Trained != 2 || s.Deduped != 1 {
		t.Fatalf("stats %+v, want 2 trained / 1 deduped (no eviction without a cache)", s)
	}
}

// fullDisk is a cache backend whose every store fails as a full disk does.
type fullDisk struct{}

func (fullDisk) Load(string) (*core.Result, bool) { return nil, false }
func (fullDisk) Store(fp string, _ *core.Result) error {
	return &os.PathError{Op: "write", Path: fp + ".json", Err: syscall.ENOSPC}
}
func (fullDisk) Age(string) float64 { return 0 }

// TestFailedCacheStoreKeepsResultPinned: a store that fails (disk full)
// costs the job nothing — Run returns the trained Result, the failure is
// logged once — and the entry, never on disk, stays pinned in the memo under
// MemoLimit: a second job does not evict it, and re-submitting it dedups.
func TestFailedCacheStoreKeepsResultPinned(t *testing.T) {
	t.Parallel()
	var log bytes.Buffer
	e := New(Options{Cache: fullDisk{}, MemoLimit: 1, Log: &log})
	jobA := Job{Label: "a", Config: testConfig("all-reduce")}
	first, err := e.Run(jobA)
	if err != nil || first == nil {
		t.Fatalf("Run = %v, %v; want the trained result and no error", first, err)
	}
	if n := strings.Count(log.String(), "cache store failed"); n != 1 {
		t.Fatalf("logged %d store failures, want 1:\n%s", n, log.String())
	}
	if _, err := e.Run(Job{Label: "b", Config: testConfig("fp16")}); err != nil {
		t.Fatal(err)
	}
	again, err := e.Run(jobA)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Trained != 2 || s.Deduped != 1 || s.CacheHits != 0 {
		t.Fatalf("stats %+v, want 2 trained / 1 deduped / 0 cache hits", s)
	}
	if again != first {
		t.Fatal("re-submission did not return the pinned in-memory result")
	}
}

func TestCacheVersionSkewIsMiss(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c := NewCache(dir)
	if err := c.Store("deadbeef", fittingResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("deadbeef"); !ok {
		t.Fatal("stored entry did not load")
	}
	if _, ok := c.Load("not-there"); ok {
		t.Fatal("missing entry reported as hit")
	}
}

// TestCachePreTimelineLogIsMiss guards against serving recorded logs from
// before the per-rank timeline refactor: their fingerprints still match,
// but they lack the bucket geometry (CommLog.BucketElems) the timeline
// re-coster needs, so Load must miss — and Sweep must remove them — rather
// than panic a straggler-grid or overlap re-cost downstream.
func TestCachePreTimelineLogIsMiss(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c := NewCache(dir)
	legacy := &core.Result{Scheme: "all-reduce", Model: "MLP", WeightChecksums: []float64{1},
		CommLog: &core.CommLog{Iters: [][]core.CommOp{{{Kind: core.OpAllReduce, Elements: 4}}}}}
	if err := c.Store("cafe01", legacy); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("cafe01"); ok {
		t.Fatal("pre-timeline log (no BucketElems) must miss")
	}
	sr, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Swept != 1 || sr.Kept != 0 {
		t.Fatalf("sweep = %+v, want the geometry-less entry removed", sr)
	}

	// The same log with geometry is current and must round-trip.
	current := &core.Result{Scheme: "all-reduce", Model: "MLP", WeightChecksums: []float64{1},
		CommLog: &core.CommLog{BucketElems: []int{4},
			Iters: [][]core.CommOp{{{Kind: core.OpAllReduce, Elements: 4}}}}}
	if err := c.Store("cafe02", current); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("cafe02"); !ok {
		t.Fatal("current log reported as miss")
	}
}

func TestParallelismBoundsConcurrency(t *testing.T) {
	t.Parallel()
	// Observe concurrency through the engine's own semaphore: with
	// Parallelism 2, at most two distinct trainings hold slots at once.
	e := New(Options{Parallelism: 2})
	var peak atomic.Int32
	// Wrap by submitting jobs whose configs differ only by seed, so none
	// deduplicate and all must take a pool slot.
	jobs := make([]Job, 6)
	for i := range jobs {
		cfg := testConfig("all-reduce")
		cfg.Seed = uint64(i + 1)
		jobs[i] = Job{Label: "j", Config: cfg}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = e.RunAll(jobs)
	}()
	// Sample the semaphore occupancy while the pool drains.
	for {
		select {
		case <-done:
			if p := peak.Load(); p > 2 {
				t.Fatalf("observed %d concurrent slots, bound is 2", p)
			}
			if s := e.Stats(); s.Trained != 6 {
				t.Fatalf("stats %+v, want 6 trained", s)
			}
			return
		default:
		}
		if n := int32(len(e.sem)); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(time.Millisecond)
	}
}
