// Package serve turns the experiment harness into a long-running service.
// Where cmd/pactrain-bench builds an engine, prints, and exits — taking its
// singleflight table and warmed cache with it — a serve.Server owns one
// shared harness/engine for its whole lifetime and serves experiment
// artifacts to many concurrent clients over HTTP/JSON:
//
//   - POST /v1/experiments submits any registered experiment grid
//     (harness.Experiments) and returns a job id; identical in-flight
//     submissions coalesce onto the same job, a request-level singleflight
//     stacked above the engine's config-level one.
//   - GET /v1/jobs/{id} polls status and per-job engine progress (derived
//     from the engine's event stream, not log scraping); GET
//     /v1/jobs/{id}/result returns the report bytes, identical to
//     `pactrain-bench -exp <id> -json` output for the same options.
//   - GET /v1/jobs/{id}/events streams the job's lifecycle transitions,
//     engine events, and trainer heartbeats as Server-Sent Events, with
//     exact Last-Event-ID replay from a bounded per-job ring.
//   - GET /healthz, GET /v1/stats, and GET /metrics expose liveness, the
//     engine counters, and a Prometheus-style text exposition.
//
// Jobs run on a bounded worker pool above the engine's own training
// parallelism; Shutdown drains the queue gracefully, finishing accepted
// jobs while rejecting new submissions.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"pactrain/internal/audit"
	"pactrain/internal/collective"
	"pactrain/internal/ddp"
	"pactrain/internal/harness"
	"pactrain/internal/harness/engine"
	"pactrain/internal/metrics"
)

// Submission failure modes the HTTP layer maps to status codes.
var (
	// ErrUnknownExperiment rejects ids missing from the registry (400).
	ErrUnknownExperiment = errors.New("unknown experiment")
	// ErrUnknownCollective rejects collective-algorithm names missing from
	// the collective registry (400).
	ErrUnknownCollective = errors.New("unknown collective algorithm")
	// ErrUnknownOverlap rejects backward-overlap selectors outside the
	// ddp.OverlapNames vocabulary (400).
	ErrUnknownOverlap = errors.New("unknown overlap mode")
	// ErrBadSize rejects a negative World or Samples, or Samples above
	// MaxSamples (400).
	ErrBadSize = errors.New("world or samples out of range")
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("server is draining")
	// ErrQueueFull rejects submissions when the job queue is at capacity
	// (429).
	ErrQueueFull = errors.New("job queue is full")
)

// Options configures a Server.
type Options struct {
	// Parallelism bounds concurrent trainings inside the engine (min 1).
	Parallelism int
	// CacheDir enables the engine's on-disk result cache; it is swept for
	// stale entries at startup.
	CacheDir string
	// MemoLimit bounds the engine's in-memory singleflight Result memo
	// (engine.Options.MemoLimit): 0 keeps every trained Result for the
	// process lifetime; with a limit and a CacheDir, the oldest
	// disk-persisted entries evict and re-queries round-trip through the
	// disk cache.
	MemoLimit int
	// Workers bounds concurrently running experiment jobs (default 2).
	Workers int
	// QueueDepth bounds accepted-but-unstarted jobs (default 64).
	QueueDepth int
	// RateLimit enables the per-client token bucket: each client may submit
	// this many requests per second sustained (RateBurst at once), beyond
	// which submissions 429 with a Retry-After. 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity per client (default 1 when
	// RateLimit is set).
	RateBurst int
	// CachePeers lists sibling instances' base URLs for the engine's
	// cache-peer protocol: a local cache miss consults each peer before
	// training (engine.Options.PeerURLs). This server's own Handler answers
	// peers under /cache/v1/ whether or not CachePeers is set, and the
	// engine names itself, so a peer group needs no other configuration.
	CachePeers []string
	// HistoryLimit bounds retained job records (default 256): once the
	// server holds more, the oldest finished jobs — and their report bytes
	// — are evicted, so a long-lived process does not grow without bound.
	// Queued and running jobs are never evicted.
	HistoryLimit int
	// Log receives engine and service progress lines; nil discards them.
	Log io.Writer
	// LogFormat selects the log shape: "" or "text" keeps the human
	// progress lines; "json" writes one JSON object per observable event
	// (the same EventPayload the SSE stream sends) and silences the
	// free-form engine lines.
	LogFormat string
	// PProf exposes net/http/pprof under /debug/pprof/ on the service
	// handler. Off by default: the profiling surface is for operators, not
	// API clients.
	PProf bool
}

// Server owns the shared engine and the async job queue. Construct with
// New, expose Handler over HTTP, and stop with Shutdown.
type Server struct {
	opt    Options
	engine *engine.Engine
	met    *serveMetrics
	sweep  engine.SweepResult
	start  time.Time

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string
	inflight  map[string]*job // submission key -> queued/running job
	seq       int
	q         jobQueue
	qcond     *sync.Cond // signalled on push and close; waits under s.mu
	drain     drainEstimator
	limiter   *rateLimiter
	draining  bool
	recent    []engine.Event
	simServed float64
	// rateLimitedTotal counts submissions rejected by the token bucket.
	rateLimitedTotal int
	// Lifetime totals: unlike the per-state tallies over s.jobs, these
	// survive history eviction, so /v1/stats and /metrics agree forever.
	doneTotal, failedTotal, coalescedTotal int
	// auditCalibMax is the lifetime-high calibration error across every
	// audited run — the drift headline pactrain_audit_calibration_max_abs_error
	// reports.
	auditCalibMax float64
	// beforeRun, when a test sets it before submitting anything, runs on the
	// worker once a job is marked running and before it trains, so the test
	// can hold the worker there.
	beforeRun func(*job)

	wg sync.WaitGroup
}

// recentEvents bounds the event ring surfaced on /v1/stats.
const recentEvents = 32

// syncWriter serializes concurrent jobs' progress lines onto one writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// New builds a server, sweeps the on-disk cache, and starts the worker
// pool. Callers must eventually call Shutdown.
func New(opt Options) (*Server, error) {
	if opt.Parallelism < 1 {
		opt.Parallelism = 1
	}
	if opt.Workers < 1 {
		opt.Workers = 2
	}
	if opt.QueueDepth < 1 {
		opt.QueueDepth = 64
	}
	if opt.HistoryLimit < 1 {
		opt.HistoryLimit = 256
	}
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	opt.Log = &syncWriter{w: opt.Log}

	s := &Server{
		opt:      opt,
		met:      newServeMetrics(),
		start:    time.Now(),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		limiter:  newRateLimiter(opt.RateLimit, opt.RateBurst),
	}
	s.qcond = sync.NewCond(&s.mu)
	engineLog := opt.Log
	if opt.LogFormat == "json" {
		// Structured mode: every observable step is a JSON event line; the
		// engine's free-form progress lines would interleave garbage.
		engineLog = io.Discard
	}
	s.engine = engine.New(engine.Options{
		Parallelism: opt.Parallelism,
		CacheDir:    opt.CacheDir,
		MemoLimit:   opt.MemoLimit,
		Log:         engineLog,
		PeerURLs:    opt.CachePeers,
	})

	sweep, err := s.engine.SweepCache()
	if err != nil {
		// A failed sweep leaves stale entries behind but the cache still
		// treats them as misses; serving beats dying.
		s.logf("serve: cache sweep failed: %v", err)
	}
	s.sweep = sweep
	if opt.CacheDir != "" {
		s.logf("serve: cache %s: %s", opt.CacheDir, sweep)
	}

	for range opt.Workers {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.nextJob()
				if !ok {
					return
				}
				s.run(j)
			}
		}()
	}
	return s, nil
}

// nextJob blocks until the admission queue yields a job (high priority
// first) or the drained queue closes.
func (s *Server) nextJob() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.q.depth() == 0 && !s.q.closed {
		s.qcond.Wait()
	}
	if j := s.q.pop(); j != nil {
		return j, true
	}
	return nil, false
}

// scalarMetrics is the table of derived scalar instruments: each is a pure
// function of the StatsView snapshot /v1/stats serves, registered in this
// order by newServeMetrics and rewritten by refreshDerivedLocked — one
// source of truth, so the JSON and Prometheus views of the same server
// state can never diverge.
var scalarMetrics = []struct {
	name, help string
	gauge      bool
	value      func(StatsView) float64
}{
	{"pactrain_serve_jobs_queued", "jobs accepted and waiting for a worker", true,
		func(v StatsView) float64 { return float64(v.Jobs.Queued) }},
	{"pactrain_serve_jobs_running", "jobs currently executing", true,
		func(v StatsView) float64 { return float64(v.Jobs.Running) }},
	{"pactrain_serve_jobs_done_total", "jobs completed successfully", false,
		func(v StatsView) float64 { return float64(v.Jobs.Done) }},
	{"pactrain_serve_jobs_failed_total", "jobs that ended in error", false,
		func(v StatsView) float64 { return float64(v.Jobs.Failed) }},
	{"pactrain_serve_jobs_coalesced_total", "submissions folded onto an identical in-flight job", false,
		func(v StatsView) float64 { return float64(v.Jobs.Coalesced) }},
	{"pactrain_engine_jobs_submitted_total", "grid cells submitted to the engine", false,
		func(v StatsView) float64 { return float64(v.Engine.Submitted) }},
	{"pactrain_engine_trainings_total", "trainings the engine actually executed", false,
		func(v StatsView) float64 { return float64(v.Engine.Trained) }},
	{"pactrain_engine_deduped_total", "grid cells satisfied by an identical in-process job", false,
		func(v StatsView) float64 { return float64(v.Engine.Deduped) }},
	{"pactrain_engine_cache_hits_total", "grid cells satisfied from the on-disk cache", false,
		func(v StatsView) float64 { return float64(v.Engine.CacheHits) }},
	{"pactrain_serve_sim_seconds_served_total", "simulated training seconds delivered to clients", false,
		func(v StatsView) float64 { return v.SimSecondsServed }},
	{"pactrain_serve_cache_swept_total", "stale or corrupt cache entries removed at startup", false,
		func(v StatsView) float64 { return float64(v.CacheSweep.Swept) }},
	{"pactrain_serve_draining", "1 while graceful shutdown is in progress", true,
		func(v StatsView) float64 {
			if v.Draining {
				return 1
			}
			return 0
		}},
	{"pactrain_serve_queue_depth", "submissions sitting in the accept queue", true,
		func(v StatsView) float64 { return float64(v.Queue.High + v.Queue.Low) }},
	{"pactrain_serve_queue_depth_high", "submissions waiting at high priority (recost/quick lane)", true,
		func(v StatsView) float64 { return float64(v.Queue.High) }},
	{"pactrain_serve_queue_depth_low", "submissions waiting at low priority (grid-training lane)", true,
		func(v StatsView) float64 { return float64(v.Queue.Low) }},
	{"pactrain_serve_cache_hit_ratio", "fraction of resolved grid cells served from cache (disk or peer) rather than trained", true,
		func(v StatsView) float64 { return v.CacheHitRatio }},
	{"pactrain_serve_drain_rate_jobs_per_sec", "observed job completion rate (EWMA), the basis for Retry-After", true,
		func(v StatsView) float64 { return v.DrainRatePerSec }},
	{"pactrain_serve_rate_limited_total", "submissions rejected by the per-client rate limit", false,
		func(v StatsView) float64 { return float64(v.RateLimited) }},
	{"pactrain_cache_peer_hits", "grid cells satisfied over the cache-peer protocol", false,
		func(v StatsView) float64 { return float64(v.Engine.PeerHits) }},
	{"pactrain_cache_peer_misses", "peer requests that answered no-entry", false,
		func(v StatsView) float64 { return float64(v.Engine.PeerMisses) }},
	{"pactrain_cache_peer_errors", "peer requests that failed outright", false,
		func(v StatsView) float64 { return float64(v.Engine.PeerErrors) }},
}

// serveMetrics holds the server's instruments on one metrics.Registry: the
// derived scalars (parallel to scalarMetrics), and handles for the
// instruments written at event time — the audit tallies at audited-job
// completion, the histograms at completions and cache hits.
type serveMetrics struct {
	reg     *metrics.Registry
	scalars []*metrics.Counter

	auditRuns         *metrics.Counter
	auditOracleRegret *metrics.Counter
	auditStaticRegret *metrics.Counter
	auditCalibMax     *metrics.Counter

	jobWall     *metrics.Histogram
	jobSim      *metrics.Histogram
	cacheHitAge *metrics.Histogram
}

func newServeMetrics() *serveMetrics {
	reg := metrics.NewRegistry()
	reg.Info("pactrain_build_info", "build identity of the serving binary", metrics.BuildInfoLabels())
	m := &serveMetrics{reg: reg}
	for _, row := range scalarMetrics {
		declare := reg.Counter
		if row.gauge {
			declare = reg.Gauge
		}
		m.scalars = append(m.scalars, declare(row.name, row.help))
	}
	m.auditRuns = reg.Counter("pactrain_audit_runs_total", "training runs audited into counterfactual ledgers")
	m.auditOracleRegret = reg.Counter("pactrain_audit_oracle_regret_seconds_total", "audited controller cost above the per-round oracle, summed over runs")
	m.auditStaticRegret = reg.Gauge("pactrain_audit_static_regret_seconds_total", "audited controller cost versus the best static format, summed over runs (negative: the controller won)")
	m.auditCalibMax = reg.Gauge("pactrain_audit_calibration_max_abs_error", "largest |predicted-actual|/actual cost error observed across audited runs")
	m.jobWall = reg.Histogram("pactrain_serve_job_wall_seconds", "wall-clock duration of completed jobs",
		metrics.ExponentialBuckets(0.1, 2, 12))
	m.jobSim = reg.Histogram("pactrain_serve_job_sim_seconds", "simulated training seconds attributed to completed jobs",
		metrics.ExponentialBuckets(1, 4, 10))
	m.cacheHitAge = reg.Histogram("pactrain_engine_cache_hit_age_seconds", "age of on-disk cache entries when served",
		metrics.ExponentialBuckets(1, 4, 10))
	return m
}

// Submit validates, coalesces, and enqueues a request. The bool reports
// whether the submission coalesced onto an existing in-flight job.
func (s *Server) Submit(req SubmitRequest) (JobView, bool, error) {
	def, ok := harness.ExperimentByID(req.Experiment)
	if !ok {
		return JobView{}, false, fmt.Errorf("%w: %q (valid ids: %s)",
			ErrUnknownExperiment, req.Experiment, strings.Join(harness.ExperimentIDs(), ", "))
	}
	if _, err := collective.CanonicalAlgorithm(req.Collective); err != nil {
		return JobView{}, false, fmt.Errorf("%w: %q (valid names: %s)",
			ErrUnknownCollective, req.Collective, strings.Join(collective.AlgorithmNames(), ", "))
	}
	if _, err := ddp.ParseOverlap(req.Overlap); err != nil {
		return JobView{}, false, fmt.Errorf("%w: %q (valid names: %s)",
			ErrUnknownOverlap, req.Overlap, strings.Join(ddp.OverlapNames(), ", "))
	}
	if req.World < 0 || req.Samples < 0 || req.Samples > MaxSamples {
		return JobView{}, false, fmt.Errorf("%w: world %d, samples %d (neither negative, samples at most %d)",
			ErrBadSize, req.World, req.Samples, MaxSamples)
	}
	prio, override, err := parsePriority(req.Priority)
	if err != nil {
		return JobView{}, false, err
	}
	if !override {
		prio = inferPriority(def, req.Quick)
	}
	opts := harness.Options{
		Quick:      req.Quick,
		World:      req.World,
		Samples:    req.Samples,
		Seed:       req.Seed,
		Collective: req.Collective,
		Overlap:    req.Overlap,
	}.Normalized()
	key := submitKey(def.ID, opts)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobView{}, false, ErrDraining
	}
	if j, ok := s.inflight[key]; ok {
		j.coalesced++
		s.coalescedTotal++
		if prio == PriorityHigh && j.priority == PriorityLow && j.state == JobQueued {
			// The coalescing upgrade: a high-priority twin lends its
			// urgency to the queued job both now share.
			s.q.promote(j)
		}
		return j.view(), true, nil
	}
	if s.q.depth() >= s.opt.QueueDepth {
		return JobView{}, false, &TooBusyError{
			Err:           fmt.Errorf("%w (depth %d)", ErrQueueFull, s.opt.QueueDepth),
			RetryAfterSec: s.drain.retryAfter(s.q.depth()),
		}
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("j%06d", s.seq),
		key:      key,
		def:      def,
		opts:     opts,
		priority: prio,
		state:    JobQueued,
		created:  time.Now(),
	}
	s.q.push(j)
	s.qcond.Signal()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.inflight[key] = j
	s.publishLocked(j, EventPayload{Type: "state", State: JobQueued})
	return j.view(), false, nil
}

// Admit spends one rate-limit token for a client, returning a TooBusyError
// wrapping ErrRateLimited when the bucket is empty. A server without a
// configured RateLimit admits everything.
func (s *Server) Admit(client string) error {
	if s.limiter == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ok, wait := s.limiter.allow(client, time.Now())
	if ok {
		return nil
	}
	s.rateLimitedTotal++
	return &TooBusyError{
		Err:           fmt.Errorf("%w (client %s)", ErrRateLimited, client),
		RetryAfterSec: wait,
	}
}

// run executes one job on a worker goroutine.
func (s *Server) run(j *job) {
	s.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	s.publishLocked(j, EventPayload{Type: "state", State: JobRunning})
	s.mu.Unlock()
	s.logf("serve: job %s running (%s)", j.id, j.key)
	if s.beforeRun != nil {
		s.beforeRun(j)
	}

	opts := j.opts
	opts.Engine = s.engine.WithObserver(func(ev engine.Event) { s.onEngineEvent(j, ev) })
	opts.Log = s.opt.Log
	if s.opt.LogFormat == "json" {
		// The harness narrates experiments in prose; structured mode keeps
		// the log pure event objects.
		opts.Log = io.Discard
	}
	opts.Parallelism = s.opt.Parallelism
	// Every job gets a fresh auditor: experiments wired for auditing (the
	// controller-driven grids) fill it, everything else leaves it empty.
	// Auditing is derived from recorded logs, so the report bytes stay
	// byte-identical to the CLI's un-audited output.
	auditor := audit.NewCollector()
	opts.Auditor = auditor
	rep, err := j.def.Run(opts)
	var raw []byte
	if err == nil {
		raw, err = harness.ReportJSON(j.def.ID, opts, rep)
	}
	var auditRaw []byte
	var audited []*audit.Report
	if err == nil {
		if audited = auditor.Reports(); len(audited) > 0 {
			auditRaw, err = audit.MarshalReports(audited)
		}
	}

	s.mu.Lock()
	j.finished = time.Now()
	// Feed the drain-rate estimate behind queue-full Retry-After while the
	// completion time is fresh.
	s.drain.observe(j.finished)
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
		s.failedTotal++
	} else {
		j.state = JobDone
		// Match the CLI byte-for-byte: pactrain-bench prints the report
		// followed by one newline.
		j.resultJSON = append(raw, '\n')
		j.auditJSON = auditRaw
		s.doneTotal++
		if len(audited) > 0 {
			var oracle, static, calib float64
			for _, r := range audited {
				oracle += r.OracleRegretSec
				static += r.StaticRegretSec
				if m := r.MaxCalibrationError(); m > calib {
					calib = m
				}
			}
			s.met.auditRuns.Add(float64(len(audited)))
			s.met.auditOracleRegret.Add(oracle)
			s.met.auditStaticRegret.Add(static)
			if calib > s.auditCalibMax {
				s.auditCalibMax = calib
				s.met.auditCalibMax.Set(calib)
			}
		}
	}
	s.met.jobWall.Observe(j.finished.Sub(j.started).Seconds())
	s.met.jobSim.Observe(j.simSeconds)
	s.publishLocked(j, EventPayload{Type: "state", State: j.state, Error: j.errMsg})
	// Terminal: end every live stream; late subscribers get pure replay.
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.evictHistory()
	s.mu.Unlock()
	s.logf("serve: job %s %s (%.1fs wall)", j.id, j.state, j.finished.Sub(j.started).Seconds())
}

// evictHistory drops the oldest finished job records — report bytes
// included — once more than HistoryLimit are retained, so an always-on
// server's memory stays bounded. Queued and running jobs never evict.
// Callers hold s.mu.
func (s *Server) evictHistory() {
	if len(s.jobs) <= s.opt.HistoryLimit {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if len(s.jobs) > s.opt.HistoryLimit && (j.state == JobDone || j.state == JobFailed) {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// onEngineEvent observes the engine events of one job's own submissions —
// run hands def.Run a per-job view of the shared engine
// (engine.WithObserver), so an event reaches exactly the job whose run
// made the submission. It feeds the job's progress counters, sim-seconds
// tally and SSE stream, plus the server-wide recent-event ring, served
// total and event-time histograms. It is called from scheduling goroutines
// concurrently, never with s.mu held.
func (s *Server) onEngineEvent(j *job, ev engine.Event) {
	if ev.Kind == engine.EventCacheHit && ev.CacheAgeSeconds > 0 {
		s.met.cacheHitAge.Observe(ev.CacheAgeSeconds)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Kind != engine.EventProgress {
		// Heartbeats would flood the 32-slot /v1/stats ring inside one
		// training; they live on the per-job SSE streams instead.
		s.recent = append(s.recent, ev)
		if len(s.recent) > recentEvents {
			s.recent = s.recent[len(s.recent)-recentEvents:]
		}
	}
	delivered := ev.Err == ""
	switch ev.Kind {
	case engine.EventSubmitted:
		j.progress.Submitted++
	case engine.EventDeduped:
		j.progress.Deduped++
	case engine.EventCacheHit:
		j.progress.CacheHits++
	case engine.EventTrainDone:
		if delivered {
			j.progress.Trained++
		}
	}
	if delivered {
		switch ev.Kind {
		case engine.EventDeduped, engine.EventCacheHit, engine.EventTrainDone:
			s.simServed += ev.SimSeconds
			j.simSeconds += ev.SimSeconds
		}
	}
	j.progress.LastEvent = fmt.Sprintf("%s %s", ev.Kind, ev.Label)
	s.publishLocked(j, EventPayload{
		Type:            ev.Kind.String(),
		Label:           ev.Label,
		Fingerprint:     ev.Fingerprint,
		SimSeconds:      ev.SimSeconds,
		CacheAgeSeconds: ev.CacheAgeSeconds,
		Error:           ev.Err,
		Progress:        ev.Progress,
	})
}

// Job fetches a job snapshot by id.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Result returns a finished job's report bytes.
func (s *Server) Result(id string) ([]byte, JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobView{}, false
	}
	return j.resultJSON, j.view(), true
}

// Audit returns a finished job's counterfactual audit artifact.
func (s *Server) Audit(id string) ([]byte, JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobView{}, false
	}
	return j.auditJSON, j.view(), true
}

// EngineStats snapshots the shared engine's counters.
func (s *Server) EngineStats() engine.Stats { return s.engine.Stats() }

// StatsView is the body of GET /v1/stats.
type StatsView struct {
	// Build is the serving binary's identity (version, VCS revision, Go
	// toolchain) — the JSON face of the pactrain_build_info gauge.
	Build      map[string]string  `json:"build"`
	Engine     engine.Stats       `json:"engine"`
	CacheSweep engine.SweepResult `json:"cache_sweep"`
	Jobs       JobCounts          `json:"jobs"`
	// Queue is the admission queue's per-priority depth.
	Queue QueueCounts `json:"queue"`
	// CacheHitRatio is the fraction of resolved grid cells served from a
	// cache — disk or peer — rather than trained (0 before any resolution).
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// DrainRatePerSec is the observed job completion rate (EWMA), the basis
	// for Retry-After on queue-full 429s; 0 until two completions.
	DrainRatePerSec float64 `json:"drain_rate_per_sec"`
	// RateLimited counts submissions rejected by the per-client rate limit.
	RateLimited int `json:"rate_limited"`
	// SimSecondsServed totals the simulated training seconds of every grid
	// cell delivered to a client (trained, deduplicated, or cache-hit).
	SimSecondsServed float64 `json:"sim_seconds_served"`
	Draining         bool    `json:"draining"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
	// RecentEvents is the tail of the engine's event stream, newest last.
	RecentEvents []EventView `json:"recent_events"`
}

// JobCounts tallies jobs by lifecycle state. Queued and Running count live
// records; Done, Failed, and Coalesced are lifetime totals that survive
// history eviction, so the numbers never shrink as old jobs age out.
type JobCounts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Coalesced int `json:"coalesced"`
}

// QueueCounts is the admission queue's depth by priority level.
type QueueCounts struct {
	High int `json:"high"`
	Low  int `json:"low"`
}

// EventView is the wire form of one engine event.
type EventView struct {
	Kind        string  `json:"kind"`
	Label       string  `json:"label"`
	Fingerprint string  `json:"fingerprint"`
	SimSeconds  float64 `json:"sim_seconds,omitempty"`
	Err         string  `json:"error,omitempty"`
}

// Stats assembles the service-wide status snapshot.
func (s *Server) Stats() StatsView {
	est := s.engine.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	v := StatsView{
		Build:            metrics.BuildInfoLabels(),
		Engine:           est,
		CacheSweep:       s.sweep,
		Queue:            QueueCounts{High: len(s.q.high), Low: len(s.q.low)},
		DrainRatePerSec:  s.drain.rate,
		RateLimited:      s.rateLimitedTotal,
		SimSecondsServed: s.simServed,
		Draining:         s.draining,
		UptimeSeconds:    time.Since(s.start).Seconds(),
	}
	if resolved := est.CacheHits + est.PeerHits + est.Trained; resolved > 0 {
		v.CacheHitRatio = float64(est.CacheHits+est.PeerHits) / float64(resolved)
	}
	for _, j := range s.jobs {
		switch j.state {
		case JobQueued:
			v.Jobs.Queued++
		case JobRunning:
			v.Jobs.Running++
		}
	}
	v.Jobs.Done = s.doneTotal
	v.Jobs.Failed = s.failedTotal
	v.Jobs.Coalesced = s.coalescedTotal
	v.RecentEvents = make([]EventView, len(s.recent))
	for i, ev := range s.recent {
		v.RecentEvents[i] = EventView{
			Kind:        ev.Kind.String(),
			Label:       ev.Label,
			Fingerprint: ev.Fingerprint,
			SimSeconds:  ev.SimSeconds,
			Err:         ev.Err,
		}
	}
	s.refreshDerivedLocked(v)
	return v
}

// refreshDerivedLocked rewrites every scalarMetrics instrument from the
// snapshot both /v1/stats and /metrics serve. The histograms and audit
// tallies are not touched here; they are written at event time. Callers
// hold s.mu.
func (s *Server) refreshDerivedLocked(v StatsView) {
	for i, row := range scalarMetrics {
		s.met.scalars[i].Set(row.value(v))
	}
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown begins a graceful drain: new submissions are rejected, every
// accepted job (running or queued) is finished, and the worker pool exits.
// It returns ctx.Err() if the context expires first; jobs then keep
// running to completion in the background.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.q.closed = true
		s.qcond.Broadcast()
	}
	s.mu.Unlock()
	s.logf("serve: draining (finishing accepted jobs)")

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("serve: drained")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.LogFormat == "json" {
		// Structured mode: lifecycle is already on the event log as JSON
		// objects; free-form lines would break one-object-per-line.
		return
	}
	fmt.Fprintf(s.opt.Log, format+"\n", args...)
}
