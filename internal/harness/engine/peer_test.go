package engine

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// encodeFor runs a job on an engine and renders the Result in the canonical
// cache envelope, the form in which byte-identity is guaranteed across
// instances.
func encodeFor(t *testing.T, e *Engine, job Job) []byte {
	t.Helper()
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeEntry(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestPeerHitServesRemoteEntry: an instance that misses locally serves a
// sibling's cached Result byte-identically and writes it through to its own
// disk cache.
func TestPeerHitServesRemoteEntry(t *testing.T) {
	t.Parallel()
	job := Job{Label: "remote", Config: testConfig("all-reduce")}

	dirA := t.TempDir()
	a := New(Options{Parallelism: 1, CacheDir: dirA})
	wantRaw := encodeFor(t, a, job)
	srv := httptest.NewServer(NewPeerServer(a))
	defer srv.Close()

	dirB := t.TempDir()
	b := New(Options{Parallelism: 1, CacheDir: dirB, PeerURLs: []string{srv.URL}})
	gotRaw := encodeFor(t, b, job)

	if !bytes.Equal(gotRaw, wantRaw) {
		t.Fatal("peer-served result differs from the origin's entry bytes")
	}
	st := b.Stats()
	if st.Trained != 0 || st.PeerHits != 1 {
		t.Fatalf("stats %+v, want 0 trained / 1 peer hit", st)
	}
	// Write-through: B's on-disk entry must be byte-identical to A's.
	fp := job.Config.Fingerprint()
	fileA, err := os.ReadFile(filepath.Join(dirA, fp+".json"))
	if err != nil {
		t.Fatal(err)
	}
	fileB, err := os.ReadFile(filepath.Join(dirB, fp+".json"))
	if err != nil {
		t.Fatalf("peer hit was not written through to the local cache: %v", err)
	}
	if !bytes.Equal(fileA, fileB) {
		t.Fatal("written-through entry differs from the origin's file bytes")
	}
}

// TestPeerSingleflightTrainsOnce: the same fingerprint submitted to both
// instances of a peer pair concurrently trains exactly once, and both serve
// bytes identical to a single-instance run.
func TestPeerSingleflightTrainsOnce(t *testing.T) {
	t.Parallel()
	job := Job{Label: "pair", Config: testConfig("fp16")}
	want := encodeFor(t, New(Options{Parallelism: 1}), job)

	for round := 0; round < 3; round++ {
		a := New(Options{Parallelism: 1, CacheDir: t.TempDir()})
		b := New(Options{Parallelism: 1, CacheDir: t.TempDir()})
		srvA := httptest.NewServer(NewPeerServer(a))
		srvB := httptest.NewServer(NewPeerServer(b))
		a.peers = []string{srvB.URL}
		b.peers = []string{srvA.URL}

		var wg sync.WaitGroup
		raws := make([][]byte, 2)
		errs := make([]error, 2)
		for i, e := range []*Engine{a, b} {
			wg.Add(1)
			go func(i int, e *Engine) {
				defer wg.Done()
				res, err := e.Run(job)
				if err != nil {
					errs[i] = err
					return
				}
				raws[i], errs[i] = encodeEntry(res)
			}(i, e)
		}
		wg.Wait()
		srvA.Close()
		srvB.Close()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d instance %d: %v", round, i, err)
			}
		}
		trained := a.Stats().Trained + b.Stats().Trained
		if trained != 1 {
			t.Fatalf("round %d: %d trainings across the pair, want exactly 1", round, trained)
		}
		for i, raw := range raws {
			if !bytes.Equal(raw, want) {
				t.Fatalf("round %d instance %d: result differs from single-instance bytes", round, i)
			}
		}
	}
}

// TestPeerDownFallsBackToTraining: an unreachable peer degrades to a local
// training, never an error.
func TestPeerDownFallsBackToTraining(t *testing.T) {
	t.Parallel()
	// A listener that is immediately closed yields a refused connection.
	srv := httptest.NewServer(http.NotFoundHandler())
	dead := srv.URL
	srv.Close()

	e := New(Options{Parallelism: 1, PeerURLs: []string{dead}})
	if _, err := e.Run(Job{Label: "solo", Config: testConfig("all-reduce")}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Trained != 1 {
		t.Fatalf("trained %d, want 1", st.Trained)
	}
	if st.PeerErrors == 0 {
		t.Fatal("dead peer produced no PeerErrors count")
	}
}

// TestPeerServerRejectsMalformedRequests covers the wire validation: bad
// fingerprints 400, unknown fingerprints 404.
func TestPeerServerRejectsMalformedRequests(t *testing.T) {
	t.Parallel()
	e := New(Options{})
	srv := httptest.NewServer(NewPeerServer(e))
	defer srv.Close()

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/cache/v1/entry/UPPER", http.StatusBadRequest},
		{"/cache/v1/entry/ab..cd", http.StatusBadRequest},
		{"/cache/v1/entry/0123456789abcdef", http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestPeerServesFromMemo: a diskless instance still answers peers from its
// in-memory singleflight memo.
func TestPeerServesFromMemo(t *testing.T) {
	t.Parallel()
	job := Job{Label: "memo", Config: testConfig("all-reduce")}
	a := New(Options{Parallelism: 1}) // no CacheDir
	wantRaw := encodeFor(t, a, job)
	srv := httptest.NewServer(NewPeerServer(a))
	defer srv.Close()

	b := New(Options{Parallelism: 1, PeerURLs: []string{srv.URL}})
	gotRaw := encodeFor(t, b, job)
	if !bytes.Equal(gotRaw, wantRaw) {
		t.Fatal("memo-served result differs from origin bytes")
	}
	if st := b.Stats(); st.Trained != 0 || st.PeerHits != 1 {
		t.Fatalf("stats %+v, want 0 trained / 1 peer hit", st)
	}
}

// TestPeerMissCountsAndTrains: a healthy peer without the entry answers
// 404; the asker counts the miss and trains locally.
func TestPeerMissCountsAndTrains(t *testing.T) {
	t.Parallel()
	a := New(Options{})
	srv := httptest.NewServer(NewPeerServer(a))
	defer srv.Close()

	b := New(Options{Parallelism: 1, PeerURLs: []string{srv.URL}})
	if _, err := b.Run(Job{Label: "miss", Config: testConfig("all-reduce")}); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Trained != 1 || st.PeerMisses == 0 || st.PeerErrors != 0 {
		t.Fatalf("stats %+v, want 1 trained, >0 peer misses, 0 peer errors", st)
	}
}

// TestPeerArbitrationTrainsOnce: three instances, each peered with the other
// two, run the same job at once. The answering instances arbitrate every
// race, so each round trains exactly once and every instance serves the
// single-instance bytes.
func TestPeerArbitrationTrainsOnce(t *testing.T) {
	t.Parallel()
	job := Job{Label: "trio", Config: testConfig("fp16")}
	want := encodeFor(t, New(Options{Parallelism: 1}), job)

	for round := 0; round < 10; round++ {
		engines := make([]*Engine, 3)
		urls := make([]string, len(engines))
		for i := range engines {
			engines[i] = New(Options{Parallelism: 1, CacheDir: t.TempDir()})
			srv := httptest.NewServer(NewPeerServer(engines[i]))
			t.Cleanup(srv.Close)
			urls[i] = srv.URL
		}
		for i, e := range engines {
			for j, u := range urls {
				if j != i {
					e.peers = append(e.peers, u)
				}
			}
		}

		var wg sync.WaitGroup
		raws := make([][]byte, len(engines))
		errs := make([]error, len(engines))
		for i, e := range engines {
			wg.Add(1)
			go func(i int, e *Engine) {
				defer wg.Done()
				res, err := e.Run(job)
				if err != nil {
					errs[i] = err
					return
				}
				raws[i], errs[i] = encodeEntry(res)
			}(i, e)
		}
		wg.Wait()
		trained := 0
		for i, e := range engines {
			if errs[i] != nil {
				t.Fatalf("round %d instance %d: %v", round, i, errs[i])
			}
			if !bytes.Equal(raws[i], want) {
				t.Fatalf("round %d instance %d: result differs from single-instance bytes", round, i)
			}
			trained += e.Stats().Trained
		}
		if trained != 1 {
			t.Fatalf("round %d: %d trainings across the trio, want exactly 1", round, trained)
		}
	}
}

// TestPeerSelfListedTrainsOnce: an engine that lists its own peer server as
// a peer is never held by itself; it trains once and returns promptly.
func TestPeerSelfListedTrainsOnce(t *testing.T) {
	t.Parallel()
	e := New(Options{Parallelism: 1})
	srv := httptest.NewServer(NewPeerServer(e))
	defer srv.Close()
	e.peers = []string{srv.URL}

	done := make(chan error, 1)
	go func() {
		_, err := e.Run(Job{Label: "self", Config: testConfig("all-reduce")})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(peerLongPoll):
		t.Fatal("self-peered run did not return within one long-poll")
	}
	if st := e.Stats(); st.Trained != 1 || st.PeerMisses != 1 || st.PeerErrors != 0 {
		t.Fatalf("stats %+v, want 1 trained / 1 peer miss / 0 peer errors", st)
	}
}

// TestPeerPendingThenGoneFallsBackToTraining: a peer that answers 202 and
// then stops listening fails the re-ask; the asker counts the error and
// trains locally.
func TestPeerPendingThenGoneFallsBackToTraining(t *testing.T) {
	t.Parallel()
	var asked atomic.Int32
	srv := httptest.NewUnstartedServer(nil)
	ln := srv.Listener
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		ln.Close()
		w.Header().Set("Connection", "close")
		w.WriteHeader(http.StatusAccepted)
	})
	srv.Start()
	defer srv.Close()

	e := New(Options{Parallelism: 1, PeerURLs: []string{srv.URL}})
	if _, err := e.Run(Job{Label: "gone", Config: testConfig("all-reduce")}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Trained != 1 || st.PeerErrors == 0 || st.PeerHits != 0 {
		t.Fatalf("stats %+v, want 1 trained / >0 peer errors / 0 peer hits", st)
	}
	if n := asked.Load(); n != 1 {
		t.Fatalf("peer answered %d requests, want the one 202", n)
	}
}

// TestPeerTruncatedEntryFallsBackToTraining: a 200 whose body is cut short —
// with or without a Content-Length promising the rest — is a peer error, not
// a hit. The asker trains locally, and its cache holds the trained entry,
// byte-identical to a single instance's, never the peer's bytes.
func TestPeerTruncatedEntryFallsBackToTraining(t *testing.T) {
	t.Parallel()
	job := Job{Label: "truncated", Config: testConfig("all-reduce")}
	want := encodeFor(t, New(Options{Parallelism: 1}), job)

	for _, declared := range []bool{false, true} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(len(want)))
			}
			w.Write(want[:len(want)/2])
		}))
		dir := t.TempDir()
		e := New(Options{Parallelism: 1, CacheDir: dir, PeerURLs: []string{srv.URL}})
		got := encodeFor(t, e, job)
		srv.Close()
		if st := e.Stats(); st.Trained != 1 || st.PeerErrors == 0 || st.PeerHits != 0 {
			t.Fatalf("declared length %v: stats %+v, want 1 trained / >0 peer errors / 0 peer hits", declared, st)
		}
		file, err := os.ReadFile(filepath.Join(dir, job.Config.Fingerprint()+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(file, want) {
			t.Fatalf("declared length %v: local result or cache entry differs from single-instance bytes", declared)
		}
	}
}
