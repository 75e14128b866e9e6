package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"pactrain/internal/core"
	"pactrain/internal/harness"
	"pactrain/internal/harness/engine"
	"pactrain/internal/loadgen"
	"pactrain/internal/serve"
	"pactrain/internal/tensor"
)

const (
	// arrivalRate is about half the knee of the two-instance pair on two
	// cores (README: 4/8/16 per second by hand), so latency is steady and a
	// regression toward saturation shows.
	arrivalRate = 8.0
	// sloSeconds is the limit serve.slo_miss counts against.
	sloSeconds = 2.0
	// drainSeconds is how long after the last arrival a job may still
	// finish before it counts as failed.
	drainSeconds = 15.0
	serveWorld   = 2
)

// arrival is one scheduled submission.
type arrival struct {
	idx    int
	due    time.Duration // offset from the window's start
	class  string        // unique, dup, recost or pricing
	target int           // instance the request goes to
	req    serve.SubmitRequest
	key    string // same key, same report bytes

	// Filled while the window runs.
	late, submitRTT, resultRTT float64 // seconds
	done                       float64 // seconds from due to the server's finished_at
	rejected                   int
	jobID                      string
	coalesced                  bool
	resultDigest               string
	resultBytes                int
	queued, started, finished  time.Time // the server's own timestamps
	err                        error
}

// uniqueSlots are the two slots of every second (eight arrivals) that carry
// a unique request: 0.625 s and 0.375 s apart, one on each instance.
var uniqueSlots = map[int]bool{0: true, 5: true}

// schedule builds the window's arrivals from the seed alone: evenly spaced
// at arrivalRate, targets alternating. A quarter are unique requests that must
// train; they sit in fixed slots, so that every seed offers the same load and
// two runs differ in what is asked, not in how bursty the trainings are. The
// other slots are shuffled by the seed among: a repeat of the latest unique
// request, sent to the other instance (7 in 15; under a second old in nine
// cases of ten), a repeat of one sent more than three seconds earlier (5 in
// 15; the oldest there is until the window is three seconds old), and a
// pricing-only request (3 in 15).
func schedule(seed uint64, base int, seconds float64) []*arrival {
	n := max(int(arrivalRate*seconds), 8)
	rng := tensor.NewRNG(seed*2654435761 + uint64(base))
	var others []string
	for i := 0; len(others) < n; i++ {
		switch slot := i % 15; {
		case slot < 7:
			others = append(others, "dup")
		case slot < 12:
			others = append(others, "recost")
		default:
			others = append(others, "pricing")
		}
	}
	perm := rng.Perm(len(others))
	gap := time.Duration(float64(time.Second) / arrivalRate)
	var out, keyed []*arrival // keyed: the unique arrivals, which later ones repeat
	for i := 0; i < n; i++ {
		a := &arrival{idx: base + i, due: time.Duration(i) * gap, target: i % 2}
		if uniqueSlots[i%8] {
			a.class, a.req = "unique", uniqueRequest(seed, a.idx)
			keyed = append(keyed, a)
		} else {
			a.class = others[perm[i]]
		}
		switch a.class {
		case "dup":
			origin := keyed[len(keyed)-1]
			a.req, a.target = origin.req, 1-origin.target
		case "recost":
			old := 1 // how many unique arrivals are more than three seconds old
			for old < len(keyed) && a.due-keyed[old].due > 3*time.Second {
				old++
			}
			a.req = keyed[rng.Intn(old)].req
		case "pricing":
			a.req = serve.SubmitRequest{Experiment: "largescale", Quick: true, Seed: seed}
		}
		a.key = fmt.Sprintf("%s/%d", a.req.Experiment, a.req.Seed)
		out = append(out, a)
	}
	return out
}

// uniqueRequest is a request no earlier arrival has made, so it must train:
// the smallest experiment that trains (two MLP jobs at world 2, 64 samples).
func uniqueRequest(seed uint64, idx int) serve.SubmitRequest {
	return serve.SubmitRequest{Experiment: "ablation-tern", Quick: true, World: serveWorld,
		Samples: 64, Seed: seed*100_000 + uint64(idx) + 1}
}

// client is the benchmark's own open-loop load generator: one scheduler
// goroutine hands each arrival, when it is due, to one of nproc senders;
// one poller reads completion from the servers' own timestamps.
type client struct {
	urls   []string
	submit *http.Client // at most nproc connections in all
	poll   *http.Client // one connection per instance
	tr     *tracer
}

func newClient(urls []string, tr *tracer) *client {
	perHost := max(runtime.GOMAXPROCS(0)/len(urls), 1)
	return &client{urls: urls, tr: tr,
		submit: &http.Client{Timeout: 30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: perHost, MaxIdleConnsPerHost: perHost}},
		poll: &http.Client{Timeout: 30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
}

func (c *client) close() {
	c.submit.CloseIdleConnections()
	c.poll.CloseIdleConnections()
}

func (c *client) get(url string) (int, []byte, error) {
	resp, err := c.poll.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// send submits one arrival, retrying a 429 until the window's deadline.
func (c *client) send(a *arrival, start time.Time, deadline time.Time) {
	body, err := json.Marshal(a.req)
	if err != nil {
		a.err = err
		return
	}
	a.late = time.Since(start.Add(a.due)).Seconds()
	for {
		id := c.tr.begin("serve.submit", fmt.Sprint(a.idx), 0)
		sent := time.Now()
		resp, err := c.submit.Post(c.urls[a.target]+"/v1/experiments", "application/json", bytes.NewReader(body))
		if err != nil {
			c.tr.end(id)
			a.err = err
			return
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		a.submitRTT = time.Since(sent).Seconds()
		c.tr.end(id)
		switch {
		case err != nil:
			a.err = err
		case resp.StatusCode == http.StatusAccepted:
			var sr struct {
				JobID     string `json:"job_id"`
				Coalesced bool   `json:"coalesced"`
			}
			if a.err = json.Unmarshal(raw, &sr); a.err == nil {
				a.jobID, a.coalesced = sr.JobID, sr.Coalesced
			}
		case resp.StatusCode == http.StatusTooManyRequests && time.Now().Before(deadline):
			a.rejected++
			time.Sleep(100 * time.Millisecond)
			continue
		default:
			a.err = fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
		return
	}
}

// window runs one open-loop window and returns, with the time it opened,
// when every arrival has a result, an error, or has missed the drain
// deadline.
func (c *client) window(arrivals []*arrival) time.Time {
	start := time.Now()
	last := arrivals[len(arrivals)-1].due
	deadline := start.Add(last + time.Duration(drainSeconds*float64(time.Second)))

	due := make(chan *arrival)
	sent := make(chan *arrival, len(arrivals)) // every arrival is sent once
	var senders sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for a := range due {
				c.send(a, start, deadline)
				sent <- a
			}
		}()
	}
	go func() { // the scheduler
		for _, a := range arrivals {
			time.Sleep(time.Until(start.Add(a.due)))
			due <- a
		}
		close(due)
		senders.Wait()
		close(sent)
	}()

	// The poller: the only reader of job state and results.
	var pending []*arrival
	open := true
	for open || len(pending) > 0 {
		select {
		case a, ok := <-sent:
			if !ok {
				open, sent = false, nil
			} else if a.err == nil {
				pending = append(pending, a)
			}
		case <-time.After(10 * time.Millisecond):
		}
		views := make(map[string]*serve.JobView) // one GET per job per round
		kept := pending[:0]
		for _, a := range pending {
			ref := fmt.Sprint(a.target, "/", a.jobID)
			v, seen := views[ref]
			if !seen {
				v = c.jobView(a)
				views[ref] = v
			}
			switch {
			case a.err != nil:
			case v != nil && v.State == serve.JobFailed:
				a.err = fmt.Errorf("job %s failed: %s", a.jobID, v.Error)
			case v != nil && v.State == serve.JobDone:
				c.fetchResult(a, v, start)
			case time.Now().After(deadline):
				a.err = fmt.Errorf("job %s missed the drain deadline", a.jobID)
			default:
				kept = append(kept, a)
			}
		}
		pending = kept
	}
	return start
}

func (c *client) jobView(a *arrival) *serve.JobView {
	code, raw, err := c.get(c.urls[a.target] + "/v1/jobs/" + a.jobID)
	var v serve.JobView
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(raw, &v)
	} else if err == nil {
		err = fmt.Errorf("job %s: status %d", a.jobID, code)
	}
	if err != nil {
		a.err = err
		return nil
	}
	return &v
}

// fetchResult reads a finished job's report bytes and records the spans the
// server's own timestamps describe.
func (c *client) fetchResult(a *arrival, v *serve.JobView, start time.Time) {
	id := c.tr.begin("serve.result", fmt.Sprint(a.idx), 0)
	sent := time.Now()
	code, raw, err := c.get(c.urls[a.target] + "/v1/jobs/" + a.jobID + "/result")
	a.resultRTT = time.Since(sent).Seconds()
	c.tr.end(id)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result of %s: status %d", a.jobID, code)
	}
	parse := func(stamp string) time.Time {
		at, perr := time.Parse(time.RFC3339Nano, stamp)
		if err == nil {
			err = perr
		}
		return at
	}
	a.queued, a.started, a.finished = parse(v.QueuedAt), parse(v.StartedAt), parse(v.FinishedAt)
	if err != nil {
		a.err = err
		return
	}
	a.resultDigest, a.resultBytes = digest(raw), len(raw)
	a.done = a.finished.Sub(start.Add(a.due)).Seconds()
	req := fmt.Sprint(a.idx)
	parent := c.tr.add("serve.arrival_"+a.class, req, 0, start.Add(a.due), a.finished)
	if !a.coalesced {
		c.tr.add("serve.queue_wait", req, parent, a.queued, a.started)
		c.tr.add("serve.run", req, parent, a.started, a.finished)
	}
}

// unionCache reads the results the two instances hold between them and
// writes nothing: the store the post-window verification recomputes reports
// from. A miss would make the verifying engine train, which it counts.
type unionCache struct{ caches []*engine.Cache }

func (u unionCache) Load(fp string) (*core.Result, bool) {
	for _, c := range u.caches {
		if res, ok := c.Load(fp); ok {
			return res, true
		}
	}
	return nil, false
}
func (unionCache) Store(string, *core.Result) error { return nil }
func (unionCache) Age(string) float64               { return 0 }

// serveMixed is the serve_mixed workload: an in-process peered pair over
// loopback HTTP under an open loop at a fixed rate.
func serveMixed(r *run) (outcome, error) {
	var out outcome
	var pair *loadgen.Pair
	var dirs [2]string
	shutdown := func() {
		if pair != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := pair.Shutdown(ctx); err != nil {
				r.fail("pair shutdown: %v", err)
			}
			pair = nil
		}
	}
	defer shutdown()

	// Set-up: boot the pair on fresh cache directories and put one unique
	// job through each instance, so both have trained, stored and served
	// once before the window opens. The last boot is the one measured.
	for i := 0; i < setupReps(r); i++ {
		shutdown()
		start := time.Now()
		for j := range dirs {
			var err error
			if dirs[j], err = os.MkdirTemp(r.scratch, "serve-"); err != nil {
				return out, err
			}
		}
		var err error
		pair, err = loadgen.NewPair(loadgen.PairOptions{CacheDirs: dirs, Workers: 2, Parallelism: 1})
		if err != nil {
			return out, err
		}
		c := newClient(pair.URLs, nil)
		var prime []*arrival
		for j := range dirs {
			idx := 90_000 + 2*i + j
			prime = append(prime, &arrival{idx: idx, class: "unique", target: j, req: uniqueRequest(r.seed, idx)})
		}
		c.window(prime)
		c.close()
		for _, a := range prime {
			if a.err != nil {
				return out, fmt.Errorf("serve_mixed set-up: %w", a.err)
			}
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
	}

	// With tracing on, an untraced half window precedes the traced one; the
	// ratio of their unique-arrival medians is the overhead.
	windows := []*tracer{nil}
	seconds := r.seconds
	if r.tr != nil {
		windows = []*tracer{nil, r.tr}
		seconds /= 2
	}
	var arrivals []*arrival
	var opened time.Time
	var medians []float64
	for w, tr := range windows {
		arrivals = schedule(r.seed, w*10_000, seconds)
		c := newClient(pair.URLs, tr)
		opened = c.window(arrivals)
		c.close()
		medians = append(medians, median(doneLatencies(arrivals, "unique")))
	}

	lastDone := opened
	for _, a := range arrivals {
		r.attempted++
		if a.err != nil {
			r.fail("arrival %d (%s): %v", a.idx, a.class, a.err)
			continue
		}
		out.work++
		if a.finished.After(lastDone) {
			lastDone = a.finished
		}
	}
	out.ops = doneLatencies(arrivals, "unique")
	out.tail = doneLatencies(arrivals, "")
	out.busy = lastDone.Sub(opened).Seconds()

	stats := [2]serve.StatsView{pair.Servers[0].Stats(), pair.Servers[1].Stats()}
	if r.tr != nil {
		serveLayers(r, pair.URLs, arrivals, stats, dirs, medians)
	}
	shutdown()

	verifyServe(r, arrivals, dirs[:])
	var results []*core.Result
	var err error
	if out.simSamples, out.simSeconds, results, err = cacheSim(dirs[:], serveWorld); err != nil {
		return out, err
	}
	if r.tr != nil {
		steps := 0.0
		for _, res := range results {
			steps += float64(res.Iterations * serveWorld)
		}
		g, err := mlpRig(r)
		if err != nil {
			return out, err
		}
		mlpCompute(r, g, steps)
	}
	return out, nil
}

func doneLatencies(arrivals []*arrival, class string) []float64 {
	var xs []float64
	for _, a := range arrivals {
		if a.err == nil && (class == "" || a.class == class) {
			xs = append(xs, a.done)
		}
	}
	return xs
}

// verifyServe checks what the servers returned: every arrival with the same
// (experiment, options) got the same bytes, and those bytes are what the
// harness produces locally from the results the instances hold.
func verifyServe(r *run, arrivals []*arrival, dirs []string) {
	byKey := make(map[string]string)
	reqs := make(map[string]serve.SubmitRequest)
	for _, a := range arrivals {
		if a.err != nil {
			continue
		}
		if d, ok := byKey[a.key]; ok && d != a.resultDigest {
			r.fail("arrival %d: result bytes of %s differ between arrivals", a.idx, a.key)
		}
		byKey[a.key], reqs[a.key] = a.resultDigest, a.req
	}
	union := unionCache{}
	for _, dir := range dirs {
		union.caches = append(union.caches, engine.NewCache(dir))
	}
	eng := engine.New(engine.Options{Parallelism: 1, Cache: union})
	pricing := make(map[string]string)
	for key, req := range reqs {
		def, _ := harness.ExperimentByID(req.Experiment)
		o := harness.Options{Quick: req.Quick, World: req.World, Samples: req.Samples, Seed: req.Seed,
			Parallelism: 1, Engine: eng}
		rep, err := def.Run(o)
		if err != nil {
			r.fail("verify %s: %v", key, err)
			continue
		}
		raw, err := harness.ReportJSON(def.ID, o, rep)
		if err != nil {
			r.fail("verify %s: %v", key, err)
			continue
		}
		// The service appends the newline pactrain-bench prints.
		if digest(append(raw, '\n')) != byKey[key] {
			r.fail("%s: served bytes differ from the harness's own", key)
		}
		if strings.HasPrefix(key, "largescale/") {
			pricing["largescale"] = digest(raw)
		}
	}
	if n := eng.Stats().Trained; n != 0 {
		r.fail("verification had to train %d jobs the instances should hold", n)
	}
	checkGolden(r, "serve_mixed", pricing)
}

// serveLayers reports the traced window: client round trips, the servers'
// own queue and run times, admission and coalescing counts, the engines'
// dispositions and the peer hop.
func serveLayers(r *run, urls []string, arrivals []*arrival, stats [2]serve.StatsView, dirs [2]string, medians []float64) {
	var submit, result, late, kb, queue, runUnique, hit, pricing []float64
	var accepted, coalesced, rejected, sloMiss float64
	for _, a := range arrivals {
		rejected += float64(a.rejected)
		if a.err != nil {
			sloMiss++
			continue
		}
		accepted++
		submit = append(submit, a.submitRTT*1e3)
		result = append(result, a.resultRTT*1e3)
		late = append(late, a.late*1e3)
		kb = append(kb, float64(a.resultBytes)/1e3)
		if a.coalesced {
			coalesced++
		}
		if a.done > sloSeconds {
			sloMiss++
		}
		if !a.coalesced {
			queue = append(queue, a.started.Sub(a.queued).Seconds()*1e3)
		}
		switch a.class {
		case "unique":
			runUnique = append(runUnique, a.finished.Sub(a.started).Seconds()*1e3)
		case "pricing":
			pricing = append(pricing, a.done*1e3)
		default:
			hit = append(hit, a.done*1e3)
		}
	}
	r.set("serve.submit_rtt_ms", median(submit))
	r.set("serve.result_rtt_ms", median(result))
	r.set("serve.result_kb", median(kb))
	r.set("serve.queue_wait_p50_ms", median(queue))
	r.set("serve.queue_wait_p90_ms", percentile(queue, 0.90))
	r.set("serve.run_unique_p50_ms", median(runUnique))
	r.set("serve.hit_done_p50_ms", median(hit))
	r.set("serve.pricing_done_p50_ms", median(pricing))
	r.set("serve.accepted", accepted)
	r.set("serve.coalesced", coalesced)
	r.set("serve.rejected_429", rejected)
	r.set("serve.slo_miss", sloMiss)
	r.set("gen.late_p90_ms", percentile(late, 0.90))

	var es engine.Stats
	for _, s := range stats {
		es.Submitted += s.Engine.Submitted
		es.Trained += s.Engine.Trained
		es.Deduped += s.Engine.Deduped
		es.CacheHits += s.Engine.CacheHits
		es.PeerHits += s.Engine.PeerHits
		es.PeerMisses += s.Engine.PeerMisses
		es.PeerErrors += s.Engine.PeerErrors
	}
	r.set("engine.submitted", float64(es.Submitted))
	r.set("engine.trained", float64(es.Trained))
	r.set("engine.deduped", float64(es.Deduped))
	r.set("engine.cache_hits", float64(es.CacheHits))
	r.set("engine.peer_hits", float64(es.PeerHits))
	r.set("engine.peer_misses", float64(es.PeerMisses))
	r.set("engine.peer_errors", float64(es.PeerErrors))
	r.set("engine.train_fraction", float64(es.Trained)/float64(max(es.Submitted, 1)))
	r.set("trace.overhead_frac", max(medians[1]/medians[0]-1, 0))

	// The peer hop itself: one entry the first instance holds and one it
	// does not, fetched the way a sibling engine fetches them.
	if names, _ := filepath.Glob(filepath.Join(dirs[0], "*.json")); len(names) > 0 {
		c := newClient(urls, nil)
		defer c.close()
		fp := strings.TrimSuffix(filepath.Base(names[0]), ".json")
		rtt := r.probe("engine.peer_entry_rtt", func() {
			for _, key := range []string{fp, "0000000000000000"} {
				if _, _, err := c.get(urls[0] + "/cache/v1/entry/" + key); err != nil {
					panic(err)
				}
			}
		})
		r.set("engine.peer_entry_rtt_ms", rtt/2*1e3)
	}
}
