package engine

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
)

// TestCacheConcurrentStoreLoadSweep hammers one cache with concurrent
// writers, readers, and a sweeping goroutine (run under -race by the normal
// test invocation). The sharpest interleaving it targets: a stale entry
// exists under some name, a Store renames fresh valid bytes over it, and a
// concurrent Sweep that already judged the name stale must not delete the
// fresh bytes. Every fingerprint stored during the run must load afterward.
func TestCacheConcurrentStoreLoadSweep(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c := NewCache(dir)
	res := testResult()

	const writers = 4
	const iters = 25

	// Seed every name the writers will use with a stale (version-skewed)
	// entry, so sweeps constantly have deletions pending on names that
	// concurrent Stores are overwriting with fresh bytes.
	for w := 0; w < writers; w++ {
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("fp%d%d", w, i)
			writeFile(t, filepath.Join(dir, name+".json"), `{"version":0,"result":{}}`)
		}
	}

	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Sweep(); err != nil {
				t.Errorf("sweep: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fp := fmt.Sprintf("fp%d%d", w, i)
				if err := c.Store(fp, res); err != nil {
					t.Errorf("store %s: %v", fp, err)
					return
				}
				// A just-stored entry may race a sweep that deletes the
				// stale seed — but never the fresh bytes, so a load after
				// Store returns must always hit.
				if _, ok := c.Load(fp); !ok {
					t.Errorf("entry %s unreadable immediately after store", fp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sweeps.Wait()

	// Every stored entry survived the sweeps.
	for w := 0; w < writers; w++ {
		for i := 0; i < iters; i++ {
			fp := fmt.Sprintf("fp%d%d", w, i)
			if _, ok := c.Load(fp); !ok {
				t.Fatalf("entry %s lost after concurrent sweeps", fp)
			}
		}
	}
	// And a final sweep agrees: all current, nothing to delete.
	sr, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if want := writers * iters; sr.Kept != want || sr.Swept != 0 {
		t.Fatalf("final sweep %+v, want %d kept / 0 swept", sr, want)
	}
}

// TestCacheStoreConcurrentSameFingerprint: concurrent stores of the same
// fingerprint (two processes finishing the same training would do this via
// rename; in-process the mutex serializes them) leave one valid entry.
func TestCacheStoreConcurrentSameFingerprint(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c := NewCache(dir)
	res := testResult()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Store("samefp", res); err != nil {
				t.Errorf("store: %v", err)
			}
		}()
	}
	wg.Wait()
	if _, ok := c.Load("samefp"); !ok {
		t.Fatal("entry unreadable after concurrent same-key stores")
	}
	// No temp files may leak from the concurrent writers.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files left in cache dir, want exactly the entry", len(entries))
	}
}

// fittingResult is a two-rank entry whose every op kind fits its geometry.
func fittingResult() *core.Result {
	return &core.Result{Scheme: "crafted", WeightChecksums: []float64{1, 1},
		CommLog: &core.CommLog{BucketElems: []int{3, 5}, Iters: [][]core.CommOp{{
			{Kind: core.OpBitmapBroadcast, Elements: 8, Wire: collective.BitmapWire, Bucket: 1},
			{Kind: core.OpAllReduce, Elements: 8, Wire: collective.WireFP32, Bucket: 1},
			{Kind: core.OpAllGather, Sizes: []int{2, 3}, Wire: collective.WireSparse},
			{Kind: core.OpBlockSparse, Blocks: []int{1, 2}, Union: 2, BlockSz: 4, Scale: 1},
			{Kind: core.OpPS, Elements: 3, Wire: collective.WireFP16},
		}}}}
}

// TestCacheOpsOutsideGeometryAreMisses: an entry whose ops do not fit its
// own geometry — a bucket the log does not have, an all-gather or
// block-sparse list without one entry per rank — would panic Replay or a
// cost function downstream, so Load must miss and Sweep must remove it.
func TestCacheOpsOutsideGeometryAreMisses(t *testing.T) {
	t.Parallel()
	c := NewCache(t.TempDir())
	misfits := map[string]core.CommOp{
		"bucket-past-end": {Kind: core.OpAllReduce, Elements: 8, Wire: collective.WireFP32, Bucket: 5},
		"bucket-negative": {Kind: core.OpAllReduce, Elements: 8, Wire: collective.WireFP32, Bucket: -1},
		"sizes-short":     {Kind: core.OpAllGather, Sizes: []int{3}, Wire: collective.WireSparse},
		"blocks-long":     {Kind: core.OpBlockSparse, Blocks: []int{1, 2, 3}, Union: 2, BlockSz: 4},
	}
	for fp, op := range misfits {
		res := fittingResult()
		res.CommLog.Iters[0] = append(res.CommLog.Iters[0], op)
		if err := c.Store(fp, res); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Load(fp); ok {
			t.Errorf("%s: an op outside its geometry loaded", fp)
		}
	}
	if err := c.Store("fitting", fittingResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("fitting"); !ok {
		t.Fatal("a fitting entry missed")
	}
	sr, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Swept != len(misfits) || sr.Kept != 1 {
		t.Fatalf("sweep %+v, want %d swept / 1 kept", sr, len(misfits))
	}
}

// replayEverywhere re-prices log under world ranks the ways a re-cost of a
// served entry does: both overlap modes, homogeneous and with one straggling
// rank, priced by the ring on a flat fabric.
func replayEverywhere(world int, log *core.CommLog) {
	fabric := netsim.NewFabric(netsim.FlatTopology(world, netsim.Gbps, 1e-5))
	pricer := collective.NewPricer(collective.MustAlgorithm("ring"), fabric, fabric.Topo.Hosts())
	price := func(op core.CommOp, launch float64) float64 {
		return core.CostOp(op, pricer, launch)
	}
	for _, overlap := range []ddp.Overlap{ddp.OverlapNone, ddp.OverlapBackward} {
		for _, rc := range []ddp.RankCompute{{}, {Multipliers: netsim.OneSlowRank(world, 2)}} {
			cfg := core.DefaultConfig("MLP", "all-reduce")
			cfg.World, cfg.Overlap, cfg.RankCompute = world, overlap, rc
			core.Replay(&cfg, log, price, nil)
		}
	}
}

// FuzzDecodeEntry: any bytes are either rejected, or decode to a Result
// with a comm log that replays without panicking under World =
// len(WeightChecksums), the only World the engine serves it to (fits).
func FuzzDecodeEntry(f *testing.F) {
	raw, err := encodeEntry(fittingResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, raw []byte) {
		res, ok := decodeEntry(raw)
		if !ok {
			return
		}
		world := len(res.WeightChecksums)
		if world > 64 {
			return // past the worlds a replay here builds
		}
		replayEverywhere(world, res.CommLog)
	})
}

// TestServedMisfitEntriesRetrain: an entry without a comm log, or recorded
// at fewer ranks than the job's World, would panic the job's first re-price.
// Served from disk or by a peer, each is a miss: the engine trains, and the
// Result it returns replays under the job's World.
func TestServedMisfitEntriesRetrain(t *testing.T) {
	t.Parallel()
	job := Job{Label: "misfit", Config: testConfig("all-reduce")}
	job.Config.World = 4
	fp := job.Config.Fingerprint()
	noLog := fittingResult()
	noLog.WeightChecksums = make([]float64, job.Config.World)
	noLog.CommLog = nil
	misfits := map[string]*core.Result{
		"no-log":      noLog,
		"two-of-four": fittingResult(),
	}
	check := func(name, from string, e *Engine) {
		t.Helper()
		res, err := e.Run(job)
		if err != nil {
			t.Fatalf("%s from %s: %v", name, from, err)
		}
		if st := e.Stats(); st.Trained != 1 || st.CacheHits != 0 || st.PeerHits != 0 {
			t.Fatalf("%s from %s: stats %+v, want 1 trained / 0 hits", name, from, st)
		}
		if len(res.WeightChecksums) != job.Config.World || res.CommLog == nil {
			t.Fatalf("%s from %s: served a Result that does not fit the job", name, from)
		}
		replayEverywhere(job.Config.World, res.CommLog)
	}
	for name, crafted := range misfits {
		dir := t.TempDir()
		if err := NewCache(dir).Store(fp, crafted); err != nil {
			t.Fatal(err)
		}
		disk := New(Options{CacheDir: dir})
		check(name, "disk", disk)

		raw, err := encodeEntry(crafted)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(raw)
		}))
		peered := New(Options{CacheDir: t.TempDir(), PeerURLs: []string{srv.URL}})
		check(name, "a peer", peered)
		srv.Close()
		if st := peered.Stats(); st.PeerErrors != 1 {
			t.Fatalf("%s from a peer: stats %+v, want the entry counted as 1 peer error", name, st)
		}
	}
}
