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

	"pactrain/internal/harness/engine"
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

// TestPairMixTrainsEachUniqueOnce replays a scripted mix against the pair:
// each unique submission goes to one instance and its duplicates to the
// other right after the twin's 202, while it is queued or training; once
// every twin is done, re-costs of each key go round-robin to both
// instances. Each unique grid must train exactly once cluster-wide, the
// instance that did not train it must get every cell over the peer
// protocol, and every arrival of a key must serve the bytes of its first.
func TestPairMixTrainsEachUniqueOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains real grids; run in the full or serve-load-smoke lane")
	}
	pair := newPair(t)

	// Calibrate how many grid cells one submission trains (seed 5 is
	// disjoint from the scripted seeds, so this warms nothing they use).
	calID := submit(t, pair.URLs[0], sameRequest())
	waitDone(t, pair.URLs[0], calID)
	var before [2]engine.Stats
	cellsPerGrid := 0
	for i, s := range pair.Servers {
		before[i] = s.EngineStats()
		cellsPerGrid += before[i].Trained
	}
	if cellsPerGrid == 0 {
		t.Fatal("calibration submission trained nothing")
	}

	// 12 arrivals: 2 unique, 6 duplicate, 4 re-cost.
	seeds := []uint64{100, 101}
	const dups = 3
	type arrival struct {
		seed     uint64
		base, id string
	}
	var arrivals []arrival
	send := func(seed uint64, base string) {
		req := sameRequest()
		req.Seed = seed
		arrivals = append(arrivals, arrival{seed, base, submit(t, base, req)})
	}
	for k, seed := range seeds {
		send(seed, pair.URLs[k%2])
		for range dups {
			send(seed, pair.URLs[1-k%2])
		}
	}
	for _, a := range arrivals {
		waitDone(t, a.base, a.id)
	}
	for r := range 2 {
		for k, seed := range seeds {
			send(seed, pair.URLs[(k+r)%2])
		}
	}
	for _, a := range arrivals {
		waitDone(t, a.base, a.id)
	}

	trained, peerHits := 0, 0
	for i, s := range pair.Servers {
		st := s.EngineStats()
		trained += st.Trained - before[i].Trained
		peerHits += st.PeerHits - before[i].PeerHits
	}
	// Duplicates and re-costs resolve by coalescing, the engine memo or
	// the peer protocol, never by retraining.
	want := len(seeds) * cellsPerGrid
	if trained != want {
		t.Fatalf("trained %d cells for %d unique grids (%d cells/grid), want exactly %d",
			trained, len(seeds), cellsPerGrid, want)
	}
	// Both instances served every key, and only one trained it, so the
	// other fetched each of its cells from its peer.
	if peerHits != want {
		t.Fatalf("%d peer hits, want one per cell the other instance trained (%d)", peerHits, want)
	}

	first := map[uint64][]byte{}
	for i, a := range arrivals {
		got := resultBytes(t, a.base, a.id)
		ref, ok := first[a.seed]
		if !ok {
			first[a.seed] = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("arrival %d (seed %d, %s) served %d bytes unlike the key's first arrival's %d",
				i, a.seed, a.base, len(got), len(ref))
		}
	}
}
