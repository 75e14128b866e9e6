// Package loadgen drives a running pactrain-serve instance (or a pair of
// them) with an open-loop arrival process and measures what a client fleet
// would experience: submit-to-done latency quantiles, throughput, and how
// much of the arriving work the serving tier resolved without training.
//
// Open loop means arrivals are scheduled on the clock, not gated on
// completions — the generator keeps submitting at the configured rate even
// while the service is slow, which is what makes queue growth, 429
// backpressure, and admission behavior observable at all (a closed-loop
// client self-throttles and hides them).
//
// The submission mix is three kinds drawn deterministically from a seeded
// RNG:
//
//   - unique: a fresh seed, so a fingerprint the service has never seen —
//     this is the work that must train;
//   - duplicate: re-submission of an already-issued request while it may
//     still be in flight — exercises request coalescing and engine dedup;
//   - recost: re-submission of a request observed to complete — exercises
//     the cache paths (memo, disk, peer).
//
// Results are measured, not asserted: pactrain-loadgen prints them, and the
// serve-load CI smoke lane bounds them with explicit checks. The service's
// latency under a fixed offered load is the benchmark's serve_mixed workload
// (benchmark/README.md), which boots the same Pair.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"pactrain/internal/serve"
)

// Profile shapes one load run.
type Profile struct {
	// Count is the total number of arrivals (min 1).
	Count int
	// Rate is the open-loop arrival rate in submissions per second (min 1).
	Rate float64
	// DupFrac and RecostFrac are the duplicate and recost shares of the
	// mix; the remainder is unique. Clamped so the three sum to at most 1.
	DupFrac, RecostFrac float64
	// Experiment is the submitted experiment id (default "ablation-tern",
	// the smallest grid that really trains).
	Experiment string
	// Quick selects quick grids.
	Quick bool
	// World and Samples shape the grid (defaults 2 and 64: the smallest
	// honest training).
	World, Samples int
	// BaseSeed numbers the unique submissions' config seeds; arrival i of a
	// unique kind submits BaseSeed+i.
	BaseSeed uint64
	// RNGSeed seeds the mix draw, so a profile is reproducible.
	RNGSeed int64
	// Timeout bounds the whole run including waiting for completions
	// (default 2 minutes).
	Timeout time.Duration
	// Client overrides the HTTP client (default: 10s request timeout).
	Client *http.Client
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (p Profile) normalized() Profile {
	if p.Count < 1 {
		p.Count = 1
	}
	if p.Rate <= 0 {
		p.Rate = 1
	}
	if p.DupFrac < 0 {
		p.DupFrac = 0
	}
	if p.RecostFrac < 0 {
		p.RecostFrac = 0
	}
	if sum := p.DupFrac + p.RecostFrac; sum > 1 {
		p.DupFrac /= sum
		p.RecostFrac /= sum
	}
	if p.Experiment == "" {
		p.Experiment = "ablation-tern"
	}
	if p.World == 0 {
		p.World = 2
	}
	if p.Samples == 0 {
		p.Samples = 64
	}
	if p.Timeout <= 0 {
		p.Timeout = 2 * time.Minute
	}
	if p.Client == nil {
		p.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return p
}

// Result is what one load run measured.
type Result struct {
	// Arrivals is the number of submissions generated (the profile Count).
	Arrivals int `json:"arrivals"`
	// Unique, Duplicate, Recost split the arrivals by kind.
	Unique    int `json:"unique"`
	Duplicate int `json:"duplicate"`
	Recost    int `json:"recost"`
	// Accepted counts 202 responses; Coalesced the subset folded onto an
	// in-flight twin; Retried the submissions that hit at least one 429
	// before acceptance; Failed the arrivals that never completed.
	Accepted  int `json:"accepted"`
	Coalesced int `json:"coalesced"`
	Retried   int `json:"retried"`
	Failed    int `json:"failed"`
	// WallSeconds is the whole run, first submit to last completion.
	WallSeconds float64 `json:"wall_seconds"`
	// JobsPerSec is Arrivals/WallSeconds — delivered throughput.
	JobsPerSec float64 `json:"jobs_per_sec"`
	// P50DoneSeconds / P99DoneSeconds are submit-to-done latency quantiles
	// over completed arrivals (submission time to observed done, polling).
	P50DoneSeconds float64 `json:"p50_done_seconds"`
	P99DoneSeconds float64 `json:"p99_done_seconds"`
	// TrainedDelta is the engine trainings the run caused, summed over
	// targets; TrainFraction is TrainedDelta/Arrivals — the measure of how
	// well coalescing, dedup, cache, and peers absorbed duplicate work.
	TrainedDelta  int     `json:"trained_delta"`
	TrainFraction float64 `json:"train_fraction"`
	// PeerHitsDelta sums the targets' peer-protocol hits caused by the run.
	PeerHitsDelta int `json:"peer_hits_delta"`
	// CacheHitRatio is the targets' final reported ratio (max across
	// targets — they converge as the pair warms).
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

// arrival tracks one generated submission end to end.
type arrival struct {
	req       serve.SubmitRequest
	target    string
	kind      string
	submitted time.Time
	jobID     string
	doneIn    float64
	retried   bool
	coalesced bool
	err       error
}

// Run drives the profile against one or more target base URLs, round-robin.
// It returns after every accepted arrival completes (or the profile timeout
// expires, counting stragglers as failed).
func Run(targets []string, p Profile) (*Result, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	p = p.normalized()
	logf := func(format string, args ...any) {
		if p.Log != nil {
			fmt.Fprintf(p.Log, format+"\n", args...)
		}
	}

	before := make([]serve.StatsView, len(targets))
	for i, tgt := range targets {
		st, err := fetchStats(p.Client, tgt)
		if err != nil {
			return nil, fmt.Errorf("loadgen: target %s: %w", tgt, err)
		}
		before[i] = st
	}

	rng := rand.New(rand.NewSource(p.RNGSeed))
	res := &Result{Arrivals: p.Count}
	arrivals := make([]*arrival, 0, p.Count)
	var (
		mu        sync.Mutex // guards issued/completed below
		issued    []serve.SubmitRequest
		completed []serve.SubmitRequest
		wg        sync.WaitGroup
	)
	deadline := time.Now().Add(p.Timeout)
	interval := time.Duration(float64(time.Second) / p.Rate)
	start := time.Now()
	nextSeed := p.BaseSeed

	for i := 0; i < p.Count; i++ {
		// Open loop: arrival i fires at start + i*interval regardless of
		// how previous arrivals are doing.
		if wait := time.Until(start.Add(time.Duration(i) * interval)); wait > 0 {
			time.Sleep(wait)
		}
		kind := "unique"
		switch draw := rng.Float64(); {
		case draw < p.DupFrac:
			kind = "duplicate"
		case draw < p.DupFrac+p.RecostFrac:
			kind = "recost"
		}
		mu.Lock()
		var req serve.SubmitRequest
		switch {
		case kind == "recost" && len(completed) > 0:
			req = completed[rng.Intn(len(completed))]
		case kind != "unique" && len(issued) > 0:
			// duplicate, or a recost before anything completed
			kind = "duplicate"
			req = issued[rng.Intn(len(issued))]
		default:
			kind = "unique"
			req = serve.SubmitRequest{
				Experiment: p.Experiment, Quick: p.Quick,
				World: p.World, Samples: p.Samples, Seed: nextSeed,
			}
			nextSeed++
		}
		issued = append(issued, req)
		mu.Unlock()

		a := &arrival{req: req, target: targets[i%len(targets)], kind: kind}
		arrivals = append(arrivals, a)
		switch kind {
		case "unique":
			res.Unique++
		case "duplicate":
			res.Duplicate++
		case "recost":
			res.Recost++
		}
		wg.Add(1)
		go func(a *arrival) {
			defer wg.Done()
			a.submitted = time.Now()
			runArrival(p.Client, a, deadline)
			if a.err == nil {
				mu.Lock()
				completed = append(completed, a.req)
				mu.Unlock()
			}
		}(a)
	}
	wg.Wait()
	res.WallSeconds = time.Since(start).Seconds()

	var latencies []float64
	for _, a := range arrivals {
		if a.err != nil {
			res.Failed++
			logf("loadgen: %s %s failed: %v", a.kind, a.target, a.err)
			continue
		}
		res.Accepted++
		if a.coalesced {
			res.Coalesced++
		}
		if a.retried {
			res.Retried++
		}
		latencies = append(latencies, a.doneIn)
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		res.P50DoneSeconds = quantile(latencies, 0.50)
		res.P99DoneSeconds = quantile(latencies, 0.99)
	}
	if res.WallSeconds > 0 {
		res.JobsPerSec = float64(res.Arrivals) / res.WallSeconds
	}

	for i, tgt := range targets {
		st, err := fetchStats(p.Client, tgt)
		if err != nil {
			return nil, fmt.Errorf("loadgen: target %s: %w", tgt, err)
		}
		res.TrainedDelta += st.Engine.Trained - before[i].Engine.Trained
		res.PeerHitsDelta += st.Engine.PeerHits - before[i].Engine.PeerHits
		if st.CacheHitRatio > res.CacheHitRatio {
			res.CacheHitRatio = st.CacheHitRatio
		}
	}
	res.TrainFraction = float64(res.TrainedDelta) / float64(res.Arrivals)
	logf("loadgen: %d arrivals (%d unique / %d dup / %d recost): %d trained, p50 %.2fs, p99 %.2fs, %.1f jobs/s",
		res.Arrivals, res.Unique, res.Duplicate, res.Recost,
		res.TrainedDelta, res.P50DoneSeconds, res.P99DoneSeconds, res.JobsPerSec)
	return res, nil
}

// runArrival submits one request (honoring Retry-After across 429s) and
// polls the job to completion.
func runArrival(client *http.Client, a *arrival, deadline time.Time) {
	raw, err := json.Marshal(a.req)
	if err != nil {
		a.err = err
		return
	}
	var jobID string
	for {
		if time.Now().After(deadline) {
			a.err = fmt.Errorf("deadline before acceptance")
			return
		}
		resp, err := client.Post(a.target+"/v1/experiments", "application/json", bytes.NewReader(raw))
		if err != nil {
			a.err = err
			return
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			a.err = err
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Admission control asked for backoff; honor its estimate.
			a.retried = true
			retry := 1
			if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
				retry = v
			}
			time.Sleep(time.Duration(retry) * time.Second)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			a.err = fmt.Errorf("submit status %d: %s", resp.StatusCode, body)
			return
		}
		var sub struct {
			JobID     string `json:"job_id"`
			Coalesced bool   `json:"coalesced"`
		}
		if err := json.Unmarshal(body, &sub); err != nil {
			a.err = err
			return
		}
		jobID, a.coalesced = sub.JobID, sub.Coalesced
		break
	}
	a.jobID = jobID

	for {
		if time.Now().After(deadline) {
			a.err = fmt.Errorf("deadline before completion of %s", jobID)
			return
		}
		resp, err := client.Get(a.target + "/v1/jobs/" + jobID)
		if err != nil {
			a.err = err
			return
		}
		var view serve.JobView
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&view)
		resp.Body.Close()
		if err != nil {
			a.err = err
			return
		}
		switch view.State {
		case serve.JobDone:
			a.doneIn = time.Since(a.submitted).Seconds()
			return
		case serve.JobFailed:
			a.err = fmt.Errorf("job %s failed: %s", jobID, view.Error)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// quantile reads q from sorted values (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func fetchStats(client *http.Client, base string) (serve.StatsView, error) {
	var st serve.StatsView
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&st)
	return st, err
}
