// Package engine schedules the experiment harness's training jobs. Every
// experiment in the paper's evaluation (§IV) is a grid over (model, scheme,
// bandwidth, topology) whose expensive axis is training; the engine turns
// each grid into declarative Jobs keyed by core.Config.Fingerprint and runs
// them through one shared worker pool with:
//
//   - singleflight deduplication: identical jobs submitted by any experiment
//     in the process train exactly once and share the Result (training is
//     deterministic for a fingerprint, so sharing is exact);
//   - bounded parallelism: at most Parallelism trainings run concurrently,
//     independent grid cells overlapping on the wall clock, each running its
//     ranks' serial kernels on the ranks' goroutines;
//   - an optional on-disk JSON result cache, so repeated CLI invocations
//     re-cost recorded runs instead of re-training them.
//
// Experiments submit jobs in a deterministic order and assemble reports from
// the returned slice, so report bytes are independent of scheduling.
package engine

import (
	"crypto/rand"
	"fmt"
	"io"
	"net/http"
	"sync"

	"pactrain/internal/core"
)

// Job is one declarative unit of training work: a fully specified run
// configuration plus a human-readable label for progress logging.
type Job struct {
	// Label names the job in the progress log, e.g. "fig3 VGG19/fp16".
	Label string
	// Config is the run to execute; its Fingerprint is the dedup key.
	Config core.Config
}

// Stats counts what the engine did on behalf of its callers.
type Stats struct {
	// Submitted is the number of Run/RunAll job submissions.
	Submitted int `json:"submitted"`
	// Trained is the number of core.Run invocations actually executed.
	Trained int `json:"trained"`
	// Deduped counts submissions satisfied by an identical in-process job.
	Deduped int `json:"deduped"`
	// CacheHits counts submissions satisfied from the on-disk cache.
	CacheHits int `json:"cache_hits"`
	// PeerHits counts submissions satisfied over the cache-peer protocol
	// (peer.go); PeerMisses and PeerErrors count per-peer requests that
	// answered "no entry" or failed outright.
	PeerHits   int `json:"peer_hits"`
	PeerMisses int `json:"peer_misses"`
	PeerErrors int `json:"peer_errors"`
}

// EventKind classifies one step of a submission's lifecycle.
type EventKind int

// Event kinds, in the order a single submission can emit them.
const (
	// EventSubmitted fires when a job enters the engine.
	EventSubmitted EventKind = iota
	// EventDeduped fires when a submission was satisfied by an identical
	// in-process job, after that job completes.
	EventDeduped
	// EventCacheHit fires when a submission was satisfied from the on-disk
	// cache.
	EventCacheHit
	// EventTrainStart fires when a training acquires a pool slot.
	EventTrainStart
	// EventTrainDone fires when a training finishes; Err is non-empty on
	// failure.
	EventTrainDone
	// EventProgress fires on each of a running training's rank-0 evaluation
	// heartbeats (core.Progress); Progress carries the payload. Appended
	// after the lifecycle kinds so their numeric values never move.
	EventProgress
	// EventPeerHit fires when a submission was satisfied by a cache peer.
	// Appended last; numeric values never move.
	EventPeerHit
)

// String names the kind for logs and API payloads.
func (k EventKind) String() string {
	switch k {
	case EventSubmitted:
		return "submitted"
	case EventDeduped:
		return "deduped"
	case EventCacheHit:
		return "cache-hit"
	case EventTrainStart:
		return "train-start"
	case EventTrainDone:
		return "train-done"
	case EventProgress:
		return "progress"
	case EventPeerHit:
		return "peer-hit"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one observable step of the engine's scheduling, the structured
// counterpart of the progress log: callers that used to scrape log lines
// subscribe to these instead (Options.OnEvent for a whole engine,
// Engine.WithObserver for one client's view of a shared one).
type Event struct {
	Kind        EventKind
	Label       string
	Fingerprint string
	// SimSeconds is the simulated training time of the Result the event
	// delivered (EventDeduped, EventCacheHit, EventPeerHit, successful
	// EventTrainDone; zero otherwise).
	SimSeconds float64
	// Err carries the failure of an EventTrainDone.
	Err string
	// Progress carries the heartbeat payload of an EventProgress (nil on
	// every other kind).
	Progress *core.Progress
	// CacheAgeSeconds is, on an EventCacheHit, how long ago the served
	// entry was written (0 when unknown).
	CacheAgeSeconds float64
}

// Options configures an Engine.
type Options struct {
	// Parallelism bounds concurrent trainings (min 1).
	Parallelism int
	// CacheDir enables the on-disk result cache when non-empty.
	CacheDir string
	// Cache, when non-nil, supplies the result store directly and takes
	// precedence over CacheDir. The default (CacheDir) backend is the
	// on-disk Cache; tests and embedders may substitute any CacheBackend.
	Cache CacheBackend
	// PeerURLs lists sibling instances' base URLs for the cache-peer
	// protocol (peer.go): a local cache miss consults each peer before the
	// engine commits to training. Empty disables peering.
	PeerURLs []string
	// MemoLimit bounds the in-memory singleflight Result memo (0 =
	// unlimited, the historical behavior). The memo is the cross-experiment
	// dedup economy, but a long-lived process serving many distinct configs
	// (the serve subsystem, DESIGN.md §10) would otherwise retain one Result
	// per config forever. With a limit set, an entry becomes evictable once
	// its Result is safely on disk — stored to, or loaded from, the cache —
	// and the oldest evictable entries drop first; a re-query then
	// round-trips through the disk cache byte-identically
	// (TestMemoLimitEvictsThroughDiskCache). Entries that never reached
	// disk (no CacheDir, or a failed store) are pinned: evicting them would
	// forget work nothing can recover.
	MemoLimit int
	// Log receives per-job progress lines; nil discards them.
	Log io.Writer
	// OnEvent, when non-nil, observes every scheduling step of the jobs
	// submitted through the engine New returns — the root view's observer
	// (a WithObserver view carries its own). It is invoked synchronously
	// from scheduling goroutines — possibly several at once — so it must be
	// fast, internally synchronized, and must not call back into the engine.
	OnEvent func(Event)
}

// Engine is a concurrency-limited, deduplicating scheduler for training
// jobs. It is safe for concurrent use; one engine is typically shared by
// every experiment in a process.
type Engine struct {
	*state
	onEvent func(Event)
}

// state is everything the views of one engine share (Engine.WithObserver).
type state struct {
	sem       chan struct{}
	cache     CacheBackend
	log       io.Writer
	memoLimit int
	peers     []string
	peerHTTP  *http.Client
	// id names this instance in the peer protocol; the server side breaks
	// symmetric races by its order (peer.go).
	id string

	mu       sync.Mutex
	inflight map[string]*call
	stats    Stats
	// completed lists successfully finished fingerprints in completion
	// order; persisted marks the ones whose Result is on disk and therefore
	// evictable under MemoLimit.
	completed []string
	persisted map[string]bool

	logMu sync.Mutex
}

// WithObserver returns a view of e: the same pool, memo, cache and
// counters, with fn (instead of Options.OnEvent) observing exactly the
// events of the jobs submitted through the view. It is how a caller
// multiplexing several clients onto one engine (internal/serve) tells
// their events apart; the observer selects no behaviour.
func (e *Engine) WithObserver(fn func(Event)) *Engine {
	return &Engine{state: e.state, onEvent: fn}
}

// call is one singleflight entry: the first submitter of a fingerprint
// trains; later submitters wait on done and share the outcome.
type call struct {
	done chan struct{}
	// training is closed once the owner commits to training locally —
	// after the disk cache and every peer have missed. Before it closes the
	// call is still resolving, and the peer server holds a remote request on
	// it only for a larger caller ID; after, the call is a promise any
	// remote instance may wait on (peer.go).
	training chan struct{}
	// yielded is set, under the engine lock, when the peer server answered
	// a smaller instance's request 404 while the call was resolving; the
	// owner then asks its peers again instead of committing (peer.go).
	yielded bool
	res     *core.Result
	err     error
}

// New builds an engine.
func New(opt Options) *Engine {
	if opt.Parallelism < 1 {
		opt.Parallelism = 1
	}
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	cache := opt.Cache
	if cache == nil && opt.CacheDir != "" {
		cache = NewCache(opt.CacheDir)
	}
	return &Engine{onEvent: opt.OnEvent, state: &state{
		sem:       make(chan struct{}, opt.Parallelism),
		cache:     cache,
		log:       opt.Log,
		memoLimit: opt.MemoLimit,
		peers:     opt.PeerURLs,
		peerHTTP:  &http.Client{Timeout: peerClientTimeout},
		id:        rand.Text(),
		inflight:  make(map[string]*call),
		persisted: make(map[string]bool),
	}}
}

// emit delivers an event to the observer, if there is one.
func (e *Engine) emit(kind EventKind, label, fp string, sim float64, err error) {
	if e.onEvent == nil {
		return
	}
	ev := Event{Kind: kind, Label: label, Fingerprint: fp, SimSeconds: sim}
	if err != nil {
		ev.Err = err.Error()
	}
	e.onEvent(ev)
}

// Run executes one job, deduplicating against identical in-flight or
// completed jobs and the on-disk cache. The returned Result is shared
// between deduplicated callers and must be treated as read-only.
func (e *Engine) Run(job Job) (*core.Result, error) {
	fp := job.Config.Fingerprint()

	e.mu.Lock()
	e.stats.Submitted++
	if c, ok := e.inflight[fp]; ok {
		e.stats.Deduped++
		e.mu.Unlock()
		e.emit(EventSubmitted, job.Label, fp, 0, nil)
		e.logf("engine: %-32s %s deduplicated", job.Label, fp)
		<-c.done
		var sim float64
		if c.res != nil {
			sim = c.res.SimSeconds
		}
		e.emit(EventDeduped, job.Label, fp, sim, c.err)
		return c.res, c.err
	}
	c := &call{done: make(chan struct{}), training: make(chan struct{})}
	e.inflight[fp] = c
	e.mu.Unlock()
	e.emit(EventSubmitted, job.Label, fp, 0, nil)

	var persisted bool
	c.res, persisted, c.err = e.execute(job, fp, c)
	close(c.done)
	e.mu.Lock()
	if c.err != nil {
		// Do not poison the key forever: a failed job may be retried.
		delete(e.inflight, fp)
	} else {
		e.completed = append(e.completed, fp)
		if persisted {
			e.persisted[fp] = true
		}
		e.evictLocked()
	}
	e.mu.Unlock()
	return c.res, c.err
}

// evictLocked drops the oldest disk-persisted completed entries until the
// memo is back within MemoLimit. Callers hold e.mu.
func (e *Engine) evictLocked() {
	if e.memoLimit <= 0 || len(e.persisted) == 0 {
		// Nothing evictable (no limit, no cache, or every store failed):
		// skip the scan rather than rewalking an all-pinned list per job.
		return
	}
	excess := len(e.completed) - e.memoLimit
	if excess <= 0 {
		return
	}
	kept := e.completed[:0]
	for _, fp := range e.completed {
		if excess > 0 && e.persisted[fp] {
			delete(e.inflight, fp)
			delete(e.persisted, fp)
			excess--
			continue
		}
		kept = append(kept, fp)
	}
	e.completed = kept
}

// execute resolves a job the first submitter owns: disk cache, then the
// cache peers, then a pool-limited training run. The bool reports whether
// the Result is safely on disk — the precondition for memo eviction.
func (e *Engine) execute(job Job, fp string, c *call) (*core.Result, bool, error) {
	if e.cache != nil {
		if res, ok := e.cache.Load(fp); ok && fits(res, job.Config.World) {
			e.bump(&e.stats.CacheHits)
			if e.onEvent != nil {
				e.onEvent(Event{Kind: EventCacheHit, Label: job.Label, Fingerprint: fp,
					SimSeconds: res.SimSeconds, CacheAgeSeconds: e.cache.Age(fp)})
			}
			e.logf("engine: %-32s %s cache hit", job.Label, fp)
			return res, true, nil
		}
	}
	if res, ok := e.consultPeers(job, fp, c); ok {
		return res, e.persist(job, fp, res), nil
	}
	// Every lookup missed and the training latch is closed: train.
	e.sem <- struct{}{}
	defer func() { <-e.sem }()

	e.emit(EventTrainStart, job.Label, fp, 0, nil)
	e.logf("engine: %-32s %s training (%s/%s, %d epochs, world %d)",
		job.Label, fp, job.Config.ModelName, job.Config.Scheme, job.Config.Epochs, job.Config.World)
	// execute owns a by-value copy of the config, so relaying heartbeats to
	// the observer never mutates the caller's job. A callback the caller
	// installed keeps firing first.
	cfg := job.Config
	if e.onEvent != nil {
		callerCB := cfg.OnProgress
		cfg.OnProgress = func(p core.Progress) {
			if callerCB != nil {
				callerCB(p)
			}
			e.onEvent(Event{Kind: EventProgress, Label: job.Label, Fingerprint: fp,
				SimSeconds: p.SimSeconds, Progress: &p})
		}
	}
	res, err := runConfig(cfg)
	if err != nil {
		err = fmt.Errorf("engine: job %s (%s): %w", job.Label, fp, err)
		e.emit(EventTrainDone, job.Label, fp, 0, err)
		return nil, false, err
	}
	e.bump(&e.stats.Trained)
	persisted := e.persist(job, fp, res)
	e.emit(EventTrainDone, job.Label, fp, res.SimSeconds, nil)
	return res, persisted, nil
}

// fits reports whether a served Result was recorded at the job's World: one
// weight checksum per rank, the count entryCurrent held every per-rank op
// list to. A Result from disk or a peer that fails it would index past its
// lists when re-priced for the job, so it is a miss.
func fits(res *core.Result, world int) bool {
	return len(res.WeightChecksums) == world
}

// persist writes res through to the local cache, so the entry is served from
// disk next time, and reports whether it is there: the precondition for memo
// eviction.
func (e *Engine) persist(job Job, fp string, res *core.Result) bool {
	if e.cache == nil {
		return false
	}
	if err := e.cache.Store(fp, res); err != nil {
		e.logf("engine: %-32s %s cache store failed: %v", job.Label, fp, err)
		return false
	}
	return true
}

// runConfig turns a panic on the calling goroutine, where core.Run validates
// the config and builds the run, into a job error, so long-running callers
// like the serve subsystem fail one job instead of crashing the process. It
// guards that goroutine only: a panic on one of the run's rank goroutines is
// still fatal.
func runConfig(cfg core.Config) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("training panicked: %v", r)
		}
	}()
	return core.Run(cfg)
}

// RunAll executes jobs concurrently (bounded by Parallelism) and returns
// their results in submission order. The first error aborts the return but
// every job is waited for, so partial work never leaks goroutines.
func (e *Engine) RunAll(jobs []Job) ([]*core.Result, error) {
	results := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job Job) {
			defer wg.Done()
			results[i], errs[i] = e.Run(job)
		}(i, job)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// bump increments one of the engine's counters.
func (e *Engine) bump(n *int) {
	e.mu.Lock()
	*n++
	e.mu.Unlock()
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// SweepCache removes stale and corrupt entries from the on-disk cache (see
// Cache.Sweep); an engine without a sweepable cache sweeps nothing.
func (e *Engine) SweepCache() (SweepResult, error) {
	if s, ok := e.cache.(interface{ Sweep() (SweepResult, error) }); ok {
		return s.Sweep()
	}
	return SweepResult{}, nil
}

// Summary renders the counters as one progress line.
func (s Stats) Summary() string {
	base := fmt.Sprintf("%d jobs submitted: %d trained, %d deduplicated, %d cache hits",
		s.Submitted, s.Trained, s.Deduped, s.CacheHits)
	if s.PeerHits+s.PeerMisses+s.PeerErrors > 0 {
		base += fmt.Sprintf(", %d peer hits (%d misses, %d errors)",
			s.PeerHits, s.PeerMisses, s.PeerErrors)
	}
	return base
}

func (e *Engine) logf(format string, args ...any) {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	fmt.Fprintf(e.log, format+"\n", args...)
}
