package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pactrain/internal/core"
	"pactrain/internal/harness"
	"pactrain/internal/harness/engine"
)

// harnessBatch is the batch size harness.baseConfig gives every training;
// with the world size it turns a Result's iteration count into samples.
const harnessBatch = 8

func digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// suiteOptions are the options of `pactrain-bench -exp all -quick` at the
// run's seed, on a shared engine.
func suiteOptions(r *run, eng *engine.Engine) harness.Options {
	o := harness.Options{Quick: true, Seed: r.seed, Parallelism: 1, Engine: eng}
	if r.tiny {
		o.World, o.Samples = 2, 16
	}
	return o
}

// timedCache decorates the engine's public CacheBackend: it times and counts
// Load and Store.
type timedCache struct {
	inner engine.CacheBackend
	tr    *tracer
	pass  *passTrace
}

func (c *timedCache) Load(fp string) (*core.Result, bool) {
	id := c.tr.begin("engine.cache_load", fp, c.pass.parent())
	res, ok := c.inner.Load(fp)
	c.pass.add("engine.cache_load_ms", c.tr.end(id)*1e3)
	c.pass.add("engine.cache_loads", 1)
	return res, ok
}

func (c *timedCache) Store(fp string, res *core.Result) error {
	id := c.tr.begin("engine.cache_store", fp, c.pass.parent())
	err := c.inner.Store(fp, res)
	c.pass.add("engine.cache_store_ms", c.tr.end(id)*1e3)
	c.pass.add("engine.cache_stores", 1)
	return err
}

func (c *timedCache) Age(fp string) float64 { return c.inner.Age(fp) }

// passTrace collects one traced pass's per-layer totals.
type passTrace struct {
	mu      sync.Mutex
	current int // span of the experiment now running: parent of engine spans
	totals  map[string]float64
	starts  map[string]time.Time // fingerprint -> train-start
}

func (p *passTrace) parent() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.current
}

func (p *passTrace) setParent(id int) {
	p.mu.Lock()
	p.current = id
	p.mu.Unlock()
}

func (p *passTrace) add(name string, v float64) {
	p.mu.Lock()
	p.totals[name] += v
	p.mu.Unlock()
}

// onEvent pairs the engine's train-start and train-done events into spans.
func (p *passTrace) onEvent(tr *tracer) func(engine.Event) {
	return func(ev engine.Event) {
		now := time.Now()
		switch ev.Kind {
		case engine.EventTrainStart:
			p.mu.Lock()
			p.starts[ev.Fingerprint] = now
			p.mu.Unlock()
		case engine.EventTrainDone:
			p.mu.Lock()
			start, parent := p.starts[ev.Fingerprint], p.current
			p.totals["engine.train_ms"] += now.Sub(start).Seconds() * 1e3
			p.mu.Unlock()
			tr.add("engine.train", ev.Fingerprint, parent, start, now)
		}
	}
}

type passResult struct {
	wall    float64
	digests map[string]string // experiment id -> digest of its -json bytes
	stats   engine.Stats
	trace   *passTrace // nil when untraced
}

// suitePass runs the registry's experiments in `-exp all` order on one fresh
// engine over dir, rendering each report as text and as JSON the way
// pactrain-bench does.
func suitePass(r *run, dir string, tr *tracer) (passResult, error) {
	out := passResult{digests: make(map[string]string)}
	opts := engine.Options{Parallelism: 1, CacheDir: dir}
	if tr != nil {
		out.trace = &passTrace{totals: make(map[string]float64), starts: make(map[string]time.Time)}
		opts.Cache = &timedCache{inner: engine.NewCache(dir), tr: tr, pass: out.trace}
		opts.OnEvent = out.trace.onEvent(tr)
	}
	start := time.Now()
	eng := engine.New(opts)
	ho := suiteOptions(r, eng)
	pass := tr.begin("suite.pass", "", 0)
	for _, def := range harness.Experiments() {
		id := tr.begin("harness.run_"+def.ID, "", pass)
		if out.trace != nil {
			out.trace.setParent(id)
		}
		rep, err := def.Run(ho)
		d := tr.end(id)
		if err != nil {
			return out, fmt.Errorf("%s: %w", def.ID, err)
		}
		id = tr.begin("harness.render", def.ID, pass)
		text := rep.Render()
		dr := tr.end(id)
		id = tr.begin("harness.json", def.ID, pass)
		raw, err := harness.ReportJSON(def.ID, ho, rep)
		dj := tr.end(id)
		if err != nil {
			return out, err
		}
		if text == "" {
			return out, fmt.Errorf("%s: empty rendering", def.ID)
		}
		out.digests[def.ID] = digest(raw)
		if out.trace != nil {
			out.trace.add("harness.run_"+def.ID+"_ms", d*1e3)
			out.trace.add("harness.render_ms", dr*1e3)
			out.trace.add("harness.json_ms", dj*1e3)
		}
	}
	tr.end(pass)
	out.wall = time.Since(start).Seconds()
	out.stats = eng.Stats()
	return out, nil
}

// cacheSim totals the samples and simulated seconds of every Result in a
// cache directory: the simulated throughput of what a suite delivered.
func cacheSim(dirs []string, world int) (samples, simSeconds float64, results []*core.Result, err error) {
	seen := make(map[string]bool)
	for _, dir := range dirs {
		names, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return 0, 0, nil, err
		}
		cache := engine.NewCache(dir)
		for _, name := range names {
			fp := strings.TrimSuffix(filepath.Base(name), ".json")
			if seen[fp] {
				continue
			}
			res, ok := cache.Load(fp)
			if !ok {
				return 0, 0, nil, fmt.Errorf("cache entry %s does not load", name)
			}
			seen[fp] = true
			samples += float64(res.Iterations * harnessBatch * world)
			simSeconds += res.SimSeconds
			results = append(results, res)
		}
	}
	return samples, simSeconds, results, nil
}

// suite is the suite_cold and suite_warm workloads: closed loop, one caller.
// Cold gives every pass a fresh engine and an empty cache directory; warm
// fills one directory in set-up and gives every pass a fresh engine over it,
// so each result comes from disk and nothing trains.
func suite(r *run, warm bool) (outcome, error) {
	var out outcome
	var reference map[string]string // digests every pass must reproduce
	check := func(p passResult) {
		r.attempted += len(p.digests)
		if reference == nil {
			reference = p.digests
		}
		for _, id := range differing(reference, p.digests) {
			r.fail("%s: report bytes differ between passes", id)
		}
		if warm && p.stats.Trained != 0 {
			r.fail("warm pass trained %d jobs", p.stats.Trained)
		}
	}
	newDir := func() (string, error) { return os.MkdirTemp(r.scratch, "cache-") }

	warmDir := ""
	if warm {
		// Set-up is the cold fill: what a user pays once before the warm
		// re-runs. It is one cold pass, so one repetition is already seconds
		// of steady work.
		dir, err := newDir()
		if err != nil {
			return out, err
		}
		p, err := suitePass(r, dir, nil)
		if err != nil {
			return out, err
		}
		reference = p.digests
		out.setup = []float64{p.wall}
		warmDir = dir
	} else {
		// Set-up is what precedes the first cold pass: a scratch directory
		// and one small experiment on a throwaway engine, which starts the
		// kernel pool and touches every package the passes will use.
		for i := 0; i < setupReps(r); i++ {
			start := time.Now()
			dir, err := newDir()
			if err != nil {
				return out, err
			}
			eng := engine.New(engine.Options{Parallelism: 1, CacheDir: dir})
			o := harness.Options{Quick: true, World: 2, Samples: 64, Seed: r.seed + 7000, Parallelism: 1, Engine: eng}
			def, _ := harness.ExperimentByID("ablation-tern")
			if _, err := def.Run(o); err != nil {
				return out, err
			}
			out.setup = append(out.setup, time.Since(start).Seconds())
		}
	}

	var untraced []float64
	var traced []passResult
	dir := warmDir
	start := time.Now()
	for n := 0; r.more(start, n); n++ {
		if !warm {
			var err error
			if dir, err = newDir(); err != nil {
				return out, err
			}
		}
		tr := r.tracerFor(n)
		p, err := suitePass(r, dir, tr)
		if err != nil {
			return out, err
		}
		check(p)
		if tr == nil {
			untraced = append(untraced, p.wall)
		} else {
			traced = append(traced, p)
		}
	}
	out.ops = untraced
	for _, p := range traced {
		out.ops = append(out.ops, p.wall)
	}
	out.tail = out.ops
	out.work, out.busy = float64(len(harness.Experiments())), median(out.ops)

	checkGolden(r, "suite", reference)
	world := suiteOptions(r, nil).Normalized().World
	var results []*core.Result
	var err error
	if out.simSamples, out.simSeconds, results, err = cacheSim([]string{dir}, world); err != nil {
		return out, err
	}
	if r.tr != nil {
		if err := suiteLayers(r, traced, median(untraced), results, dir, world, warm); err != nil {
			return out, err
		}
	}
	return out, nil
}

// setupReps is how many times a cheap set-up is repeated for its median.
func setupReps(r *run) int {
	if r.tiny {
		return 1
	}
	return 3
}

// suiteLayers turns the traced passes into per-layer metrics: span totals
// are medians over the traced passes, counts come from the last of them and
// from the Results the passes delivered, and per-call costs from probes at
// the MLP twin's shapes.
func suiteLayers(r *run, traced []passResult, untracedWall float64, results []*core.Result, dir string, world int, warm bool) error {
	walls := make([]float64, len(traced))
	for i, p := range traced {
		walls[i] = p.wall
	}
	// Every pass runs the same experiments, so the first names every total.
	totals := make(map[string]float64)
	runSum := 0.0
	for name := range traced[0].trace.totals {
		xs := make([]float64, len(traced))
		for i, p := range traced {
			xs[i] = p.trace.totals[name]
		}
		totals[name] = median(xs)
		r.set(name, totals[name])
		if strings.HasPrefix(name, "harness.run_") {
			runSum += totals[name]
		}
	}
	// What the experiments spend outside the engine's trainings and cache
	// calls: re-costing, replay and report assembly.
	r.set("harness.self_ms", max(runSum-totals["engine.train_ms"]-totals["engine.cache_load_ms"]-totals["engine.cache_store_ms"], 0))
	r.set("harness.pass_ms", median(walls)*1e3)
	r.set("trace.overhead_frac", max(median(walls)/untracedWall-1, 0))

	stats := traced[len(traced)-1].stats
	r.set("engine.submitted", float64(stats.Submitted))
	r.set("engine.trained", float64(stats.Trained))
	r.set("engine.deduped", float64(stats.Deduped))
	r.set("engine.cache_hits", float64(stats.CacheHits))
	kb := 0.0
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			kb += float64(info.Size()) / 1e3
		}
	}
	r.set("engine.cache_kb", kb)

	var iters, ops, wire float64
	var recorded *core.Result
	for _, res := range results {
		iters += float64(res.Iterations)
		wire += res.Stats.PayloadBytes / 1e6
		if res.CommLog != nil {
			recorded = res
			for _, it := range res.CommLog.Iters {
				ops += float64(len(it))
			}
		}
	}
	r.set("core.iters", iters)
	r.set("core.comm_ops", ops)
	r.set("collective.wire_mb", wire)

	g, err := mlpRig(r)
	if err != nil {
		return err
	}
	r.costPlaneProbes(recorded, g.cfg)
	memo, err := r.memoHitProbe(g.cfg)
	if err != nil {
		return err
	}
	r.set("engine.memo_hit_us", memo*1e6)
	if warm {
		// Nothing trains on a warm pass: the model-compute and compression
		// probes stay 0, which is the prediction for this workload.
		return nil
	}
	mlpCompute(r, g, iters*float64(world))
	if err := r.schemeProbes(g); err != nil {
		return err
	}
	p, err := r.planeProbes("", g)
	if err != nil {
		return err
	}
	r.set("gse.enforce_us", p.enforce*1e6)
	r.set("masktracker.observe_us", p.observe*1e6)
	r.set("ddp.gather_scatter_us", p.gatherScatter*1e6)
	r.set("prune.mask_ms", p.mask*1e3)
	r.set("collective.allreduce_live_us", 1e6*r.liveCollective("collective.allreduce_live", g, false))
	r.set("collective.allgather_live_us", 1e6*r.liveCollective("collective.allgather_live", g, true))
	r.set("adaptive.decide_us", 1e6*r.adaptiveProbe())
	return nil
}

// mlpRig is a worker of the MLP twin as the quick experiments train it: 320
// samples, 6 epochs.
func mlpRig(r *run) (*rig, error) { return newRig(twinConfig(r, mlpTwin, 320, 6)) }

// mlpCompute sets the model-compute totals of the MLP twin: CPU milliseconds
// per call at the twin's shapes times the worker steps the workload ran.
func mlpCompute(r *run, g *rig, steps float64) {
	c := r.computeProbes("mlp", g)
	r.set("nn.mlp_fwd_ms", c.fwd*steps*1e3)
	r.set("nn.mlp_bwd_ms", c.bwd*steps*1e3)
	r.set("nn.mlp_opt_ms", c.opt*steps*1e3)
}
