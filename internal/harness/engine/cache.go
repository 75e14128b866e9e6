package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pactrain/internal/core"
)

// cacheVersion invalidates stored entries whenever the Result schema or the
// fingerprint's coverage changes; bump it on either.
const cacheVersion = 1

// CacheBackend abstracts the engine's result store: anything that can
// resolve a config fingerprint to a recorded Result. The content-addressed
// on-disk Cache is the canonical implementation; the cache-peer protocol
// (peer.go) is layered on top of whatever backend an engine owns, serving
// its entries — and its in-flight trainings — to sibling instances.
// Implementations must be safe for concurrent use.
type CacheBackend interface {
	// Load fetches the Result for a fingerprint; ok is false on any miss.
	Load(fp string) (*core.Result, bool)
	// Store persists a Result under a fingerprint.
	Store(fp string, res *core.Result) error
	// Age reports how many seconds ago the entry was written (0 when
	// unknown) — telemetry only, never a correctness input.
	Age(fp string) float64
}

// Cache persists training Results as one JSON file per config fingerprint.
// A hit returns the Result of a previous process's identical run, which the
// experiments then re-cost under whatever bandwidths they need — the same
// train-once/re-cost economy the harness applies within a process, extended
// across processes.
//
// Entries are written atomically (temp file + rename), so a cache directory
// shared by concurrent processes serves at worst a miss, never a torn read.
// The in-process mutex serializes Store against Sweep: without it a sweep
// scanning a stale entry could delete the fresh bytes a concurrent Store
// renamed into place between the sweep's read and its remove.
type Cache struct {
	mu  sync.Mutex
	dir string
}

// Cache is the canonical CacheBackend.
var _ CacheBackend = (*Cache)(nil)

// cacheEntry is the on-disk envelope.
type cacheEntry struct {
	Version int          `json:"version"`
	Result  *core.Result `json:"result"`
}

// NewCache returns a cache rooted at dir; the directory is created lazily on
// first store.
func NewCache(dir string) *Cache {
	return &Cache{dir: dir}
}

func (c *Cache) path(fp string) string {
	return filepath.Join(c.dir, fp+".json")
}

// entryCurrent reports whether a stored Result can be served. It must carry
// a comm log — every training records one, and every harness re-price walks
// it — with the bucket geometry (CommLog.BucketElems) per-bucket overlap
// replay requires (core.CommLog.Replayable, DESIGN.md §5) — logs from before
// the per-rank timeline lack it although their fingerprints still match —
// and at least one rank's checksum: the engine serves an entry only to a job
// of World len(WeightChecksums) (fits), and World 0, which no valid job has,
// is one core.Replay cannot walk. Its ops must fit it: every op on a bucket
// the geometry has, every all-gather size list and block-sparse block list
// one entry per rank. Anything else would panic core.Replay or a cost
// function in a re-cost downstream, inside a worker nothing recovers. Such
// entries are misses (and swept), so they retrain once and rewrite with the
// full schema.
func entryCurrent(res *core.Result) bool {
	log := res.CommLog
	if log == nil {
		return false
	}
	world := len(res.WeightChecksums)
	if world == 0 || len(log.BucketElems) == 0 {
		return false
	}
	for _, ops := range log.Iters {
		for _, op := range ops {
			if op.Bucket < 0 || op.Bucket >= len(log.BucketElems) ||
				op.Kind == core.OpAllGather && len(op.Sizes) != world ||
				op.Kind == core.OpBlockSparse && len(op.Blocks) != world {
				return false
			}
		}
	}
	return true
}

// encodeEntry marshals a Result into the on-disk (and on-wire, peer.go)
// envelope. Wall time is a property of the recording process, so it is
// zeroed: an entry must read back the same whether it was written by this
// process, another process, or served over the peer protocol.
func encodeEntry(res *core.Result) ([]byte, error) {
	cp := *res
	cp.WallSeconds = 0
	return json.Marshal(cacheEntry{Version: cacheVersion, Result: &cp})
}

// decodeEntry unmarshals an envelope; ok is false on corrupt bytes, version
// skew, or an entry entryCurrent refuses. It is the one decision Load, Sweep
// and the peer client take. What encodeEntry wrote decodes in one pass
// (decodeFast); any other bytes go through json.Unmarshal.
func decodeEntry(raw []byte) (*core.Result, bool) {
	entry, ok := decodeFast(raw)
	if !ok {
		entry = cacheEntry{}
		if json.Unmarshal(raw, &entry) != nil {
			return nil, false
		}
	}
	if entry.Version != cacheVersion || entry.Result == nil || !entryCurrent(entry.Result) {
		return nil, false
	}
	entry.Result.WallSeconds = 0
	return entry.Result, true
}

// Load fetches the Result for a fingerprint; ok is false on a miss or an
// entry decodeEntry rejects.
func (c *Cache) Load(fp string) (*core.Result, bool) {
	raw, err := os.ReadFile(c.path(fp))
	if err != nil {
		return nil, false
	}
	return decodeEntry(raw)
}

// Age returns how many seconds ago the entry for a fingerprint was
// written, or 0 when the entry (or its mtime) is unavailable — telemetry
// for the cache-hit-age histogram, never a correctness input.
func (c *Cache) Age(fp string) float64 {
	info, err := os.Stat(c.path(fp))
	if err != nil {
		return 0
	}
	if age := time.Since(info.ModTime()).Seconds(); age > 0 {
		return age
	}
	return 0
}

// Store persists a Result under a fingerprint.
func (c *Cache) Store(fp string, res *core.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	raw, err := encodeEntry(res)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, fp+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, c.path(fp))
}

// SweepResult counts what a cache sweep examined and removed.
type SweepResult struct {
	// Scanned is the number of entries and temp files examined.
	Scanned int `json:"scanned"`
	// Swept is the number of stale/corrupt entries and orphaned temp files
	// deleted.
	Swept int `json:"swept"`
	// Kept is the number of valid current-version entries left in place.
	Kept int `json:"kept"`
}

// String renders the sweep outcome as one log line.
func (s SweepResult) String() string {
	return fmt.Sprintf("swept %d of %d cache entries (%d kept)", s.Swept, s.Scanned, s.Kept)
}

// sweepTmpGrace is how old a temp file must be before a sweep treats it as
// orphaned. A temp file younger than this may belong to a live writer — in
// another process, or (pre-mutex) this one — and deleting it would fail that
// writer's rename, losing a freshly trained Result from the cache.
const sweepTmpGrace = 10 * time.Minute

// Sweep deletes entries that can never hit again — every entry decodeEntry
// rejects: version skew, corrupt or truncated JSON, and recorded logs
// missing or not fitting their bucket geometry — plus temp files orphaned by
// a crashed writer (older than sweepTmpGrace; younger ones may have a live
// writer behind them). Without it stale entries accumulate forever, since
// Load treats them as silent misses. A missing cache directory sweeps
// nothing. The cache mutex is held throughout, so an in-process Store can
// never interleave with the scan.
func (c *Cache) Sweep() (SweepResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sr SweepResult
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return sr, nil
		}
		return sr, err
	}
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		path := filepath.Join(c.dir, name)
		if strings.Contains(name, ".tmp-") {
			sr.Scanned++
			if info, err := de.Info(); err == nil && time.Since(info.ModTime()) < sweepTmpGrace {
				// A live writer (another process) may still hold this temp
				// file; leave it for a later sweep.
				sr.Kept++
				continue
			}
			if err := os.Remove(path); err != nil {
				return sr, err
			}
			sr.Swept++
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		sr.Scanned++
		if raw, err := os.ReadFile(path); err == nil {
			if _, ok := decodeEntry(raw); ok {
				sr.Kept++
				continue
			}
		}
		if err := os.Remove(path); err != nil {
			return sr, err
		}
		sr.Swept++
	}
	return sr, nil
}
