package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pactrain/internal/serve"
)

// sameRequest is the one grid every cross-instance test submits: small
// enough to really train under -race in seconds.
func sameRequest() serve.SubmitRequest {
	return serve.SubmitRequest{Experiment: "ablation-tern", Quick: true, World: 2, Samples: 64, Seed: 5}
}

func newPair(t *testing.T) *Pair {
	t.Helper()
	pair, err := NewPair(PairOptions{
		CacheDirs: [2]string{t.TempDir(), t.TempDir()},
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := pair.Shutdown(ctx); err != nil {
			t.Errorf("pair shutdown: %v", err)
		}
	})
	return pair
}

func submit(t *testing.T, base string, req serve.SubmitRequest) string {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/experiments", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to %s: status %d: %s", base, resp.StatusCode, body)
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	return sub.JobID
}

func waitDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var view serve.JobView
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view.State {
		case serve.JobDone:
			return
		case serve.JobFailed:
			t.Fatalf("job %s failed: %s", id, view.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
}

func resultBytes(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// TestPairSameFingerprintTrainsOnce is the scaled-out correctness contract:
// the same submission racing into both instances of a peer pair trains
// exactly once across the cluster, and both instances serve report bytes
// identical to a single instance serving the same request alone.
func TestPairSameFingerprintTrainsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real grids; run in the full or serve-load-smoke lane")
	}

	// Baseline: one isolated instance serving the request.
	single, err := serve.New(serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := single.Shutdown(ctx); err != nil {
			t.Errorf("single shutdown: %v", err)
		}
	}()
	id := submit(t, ts.URL, sameRequest())
	waitDone(t, ts.URL, id)
	want := resultBytes(t, ts.URL, id)
	wantTrained := single.EngineStats().Trained
	if wantTrained == 0 {
		t.Fatal("baseline trained nothing; the test would prove nothing")
	}

	// The pair: the same request races into both instances at once.
	pair := newPair(t)
	ids := make([]string, 2)
	var wg sync.WaitGroup
	for i, base := range pair.URLs {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			ids[i] = submit(t, base, sameRequest())
		}(i, base)
	}
	wg.Wait()
	for i, base := range pair.URLs {
		waitDone(t, base, ids[i])
	}

	// Exactly one training across the cluster: the engine-level peer
	// singleflight resolved the race, whichever instance won it.
	trained := 0
	for _, s := range pair.Servers {
		trained += s.EngineStats().Trained
	}
	if trained != wantTrained {
		t.Fatalf("pair trained %d cells, want exactly the single-instance %d", trained, wantTrained)
	}

	// Byte-identity on every serving path.
	for i, base := range pair.URLs {
		got := resultBytes(t, base, ids[i])
		if !bytes.Equal(got, want) {
			t.Fatalf("instance %d result differs from single-instance bytes:\n got %d bytes\nwant %d bytes", i, len(got), len(want))
		}
	}

	// The losing instance resolved over the wire, not by retraining.
	peerActivity := 0
	for _, s := range pair.Servers {
		st := s.EngineStats()
		peerActivity += st.PeerHits + st.PeerMisses
	}
	if peerActivity == 0 {
		t.Fatal("no peer-protocol activity recorded; the instances never consulted each other")
	}
}

// TestLoadgenQuickProfile is the serve-load smoke lane: the quick profile
// against an in-process pair must complete every arrival, produce sane
// quantiles, and show cross-instance dedup absorbing duplicate work.
func TestLoadgenQuickProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real grids; run in the full or serve-load-smoke lane")
	}
	pair := newPair(t)

	// Calibrate how many grid cells one submission of the profile's
	// experiment trains (seed 5 is disjoint from the profile's seed range,
	// so this warms nothing the load run uses).
	calID := submit(t, pair.URLs[0], sameRequest())
	waitDone(t, pair.URLs[0], calID)
	cellsPerGrid := 0
	for _, s := range pair.Servers {
		cellsPerGrid += s.EngineStats().Trained
	}
	if cellsPerGrid == 0 {
		t.Fatal("calibration submission trained nothing")
	}

	// Smoke-sized: 12 arrivals at 40/s, duplicate-heavy with a recost
	// tail — ~3 unique grids.
	profile := Profile{Count: 12, Rate: 40, DupFrac: 0.5, RecostFrac: 0.25,
		Experiment: "ablation-tern", Quick: true, World: 2, Samples: 64,
		BaseSeed: 100, RNGSeed: 1, Timeout: 2 * time.Minute, Log: testWriter{t}}
	res, err := Run(pair.URLs, profile)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d arrivals failed", res.Failed, res.Arrivals)
	}
	if res.Accepted != res.Arrivals {
		t.Fatalf("accepted %d of %d arrivals", res.Accepted, res.Arrivals)
	}
	if got := res.Unique + res.Duplicate + res.Recost; got != res.Arrivals {
		t.Fatalf("mix %d unique + %d dup + %d recost != %d arrivals", res.Unique, res.Duplicate, res.Recost, got)
	}
	if res.P50DoneSeconds <= 0 || res.P99DoneSeconds < res.P50DoneSeconds {
		t.Fatalf("quantiles p50 %.3fs p99 %.3fs are not sane", res.P50DoneSeconds, res.P99DoneSeconds)
	}
	if res.JobsPerSec <= 0 {
		t.Fatalf("jobs/sec %.3f", res.JobsPerSec)
	}
	if res.TrainedDelta == 0 {
		t.Fatal("the run trained nothing; unique arrivals must train")
	}
	// The acceptance contract: under a duplicate-heavy mix spread across
	// both instances, each unique fingerprint trains exactly once
	// cluster-wide — duplicates and recosts resolve via coalescing, the
	// engine memo, the disk cache, or the peer protocol, never by
	// retraining.
	if want := res.Unique * cellsPerGrid; res.TrainedDelta != want {
		t.Fatalf("trained %d cells for %d unique arrivals (%d cells/grid), want exactly %d",
			res.TrainedDelta, res.Unique, cellsPerGrid, want)
	}
	// Duplicates round-robin onto both instances, so the cross-instance
	// paths must have fired: either a peer served a result, or a duplicate
	// coalesced/deduped locally while its twin trained on the sibling.
	peerActivity := 0
	for _, s := range pair.Servers {
		st := s.EngineStats()
		peerActivity += st.PeerHits + st.PeerMisses + st.PeerErrors
	}
	if peerActivity == 0 {
		t.Fatal("no peer-protocol activity; the pair is not wired as peers")
	}
	if res.TrainFraction <= 0 {
		t.Fatalf("train fraction %.3f", res.TrainFraction)
	}
}

// testWriter adapts t.Logf so loadgen progress lands in the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}
