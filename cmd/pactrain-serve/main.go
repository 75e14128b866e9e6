// Command pactrain-serve runs the experiment harness as a long-running
// HTTP/JSON service. One engine — with its singleflight table and on-disk
// run cache — lives for the whole process, so every client's (experiment,
// options) query shares the train-once/re-cost economy that pactrain-bench
// only gets within a single invocation.
//
// Usage:
//
//	pactrain-serve -addr :8080 -parallel 4 -cache .pactrain-cache
//
//	curl -s localhost:8080/v1/experiments
//	curl -s -X POST localhost:8080/v1/experiments \
//	     -d '{"experiment":"fig3","quick":true}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/v1/jobs/j000001/result
//	curl -s localhost:8080/v1/jobs/j000001/audit    # counterfactual ledgers
//	curl -sN localhost:8080/v1/jobs/j000001/events   # live SSE stream
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//
// Scaling out: instances started with -cache-peers form one logical
// cache — a local miss consults every peer (and their
// in-flight trainings) before training, so a fingerprint trains once per
// cluster, not once per instance:
//
//	pactrain-serve -addr :8080 -cache c-a -cache-peers http://b:8080
//	pactrain-serve -addr :8081 -cache c-b -cache-peers http://a:8080
//
// -rate-limit puts a per-client token bucket in front of the queue; both
// rate-limit and queue-full rejections are 429s carrying a Retry-After
// derived from the observed drain rate. The service's latency under load is
// the repository benchmark's serve_mixed workload (benchmark/README.md).
//
// -log-format json switches the process log to one JSON object per
// observable event (job transitions, engine activity, trainer heartbeats) —
// the same schema the SSE stream's data frames carry.
//
// -pprof additionally exposes net/http/pprof under /debug/pprof/ for live
// CPU/heap profiling of the serving process; it is off by default.
//
// SIGINT/SIGTERM begin a graceful drain: new submissions are rejected
// (healthz flips to 503 so load balancers stop routing), accepted jobs
// finish, then the HTTP listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pactrain/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	parallel := flag.Int("parallel", 4, "concurrent training jobs inside the engine")
	cacheDir := flag.String("cache", ".pactrain-cache", "directory for the on-disk run cache (empty = disabled)")
	workers := flag.Int("workers", 2, "concurrently running experiment jobs")
	queueDepth := flag.Int("queue", 64, "accepted-but-unstarted job limit")
	history := flag.Int("history", 256, "retained finished-job records (oldest evict past this)")
	memoLimit := flag.Int("memo-limit", 0, "in-memory trained-result memo bound; disk-persisted entries evict past this (0 = unlimited)")
	cachePeers := flag.String("cache-peers", "", "comma-separated base URLs of sibling instances; local cache misses consult them before training")
	rateLimit := flag.Float64("rate-limit", 0, "per-client sustained submissions/sec; past it submissions 429 with Retry-After (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 0, "per-client token-bucket burst capacity (default 1 when -rate-limit is set)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Minute, "how long shutdown waits for accepted jobs")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	logFormat := flag.String("log-format", "text", "log shape: text (human lines) or json (one event object per line, the SSE payload schema)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	flag.Parse()

	if *logFormat != "text" && *logFormat != "json" {
		fmt.Fprintf(os.Stderr, "pactrain-serve: unknown -log-format %q (valid: text, json)\n", *logFormat)
		os.Exit(2)
	}
	var peers []string
	for _, p := range strings.Split(*cachePeers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	var logw io.Writer = os.Stderr
	if *quiet {
		logw = io.Discard
	}
	// The process banner and drain notices are human lines; in json mode the
	// log stream must stay one event object per line.
	banner := logw
	if *logFormat == "json" {
		banner = io.Discard
	}
	s, err := serve.New(serve.Options{
		Parallelism:  *parallel,
		CacheDir:     *cacheDir,
		MemoLimit:    *memoLimit,
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		RateLimit:    *rateLimit,
		RateBurst:    *rateBurst,
		CachePeers:   peers,
		HistoryLimit: *history,
		Log:          logw,
		LogFormat:    *logFormat,
		PProf:        *pprofFlag,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pactrain-serve: %v\n", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		fmt.Fprintf(banner, "pactrain-serve: signal received, draining\n")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(banner, "pactrain-serve: drain incomplete: %v\n", err)
		}
		// Keep serving polls until the drain finishes, then close the
		// listener so in-flight responses flush.
		closeCtx, cancelClose := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancelClose()
		_ = httpSrv.Shutdown(closeCtx)
	}()

	fmt.Fprintf(banner, "pactrain-serve: listening on %s (engine parallelism %d, %d workers)\n",
		*addr, *parallel, *workers)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pactrain-serve: %v\n", err)
		os.Exit(1)
	}
}
