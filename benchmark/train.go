package main

import (
	"fmt"
	"runtime"
	"time"

	"pactrain/internal/core"
	"pactrain/internal/data"
)

// twin is one of the two full-fidelity lite twins a fig3 grid trains, with
// the recipe harness.PaperWorkloads gives it.
type twin struct {
	key, model string
	width      int
	lr, target float64
}

var twins = []twin{
	{key: "conv", model: "ResNet18", width: 10, lr: 0.10, target: 0.60},
	{key: "attn", model: "ViT-Base-16", width: 12, lr: 0.05, target: 0.50},
}

// mlpTwin stands in for every model in the quick suites and in the serve
// workload's unique requests (harness.QuickWorkloads).
var mlpTwin = twin{key: "mlp", model: "MLP", width: 8, lr: 0.05, target: 0.70}

// twinConfig is the training job harness.baseConfig builds for a twin under
// PacTrain with the ternary stage: 8 workers on the Fig. 4 fabric at 1 Gbps,
// 200 test samples, batch 8, one dense epoch and the rest pruned. The seed
// reaches the data and the trainer, nothing else.
func twinConfig(r *run, t twin, samples, epochs int) core.Config {
	cfg := core.DefaultConfig(t.model, "pactrain-ternary")
	cfg.Lite.Width = t.width
	cfg.Data = data.CIFAR10Like(samples, 11+r.seed)
	cfg.TestSamples = 200
	cfg.Epochs = epochs
	cfg.BatchSize = harnessBatch
	if r.tiny {
		cfg.World, cfg.Lite.Width = 2, 4
		cfg.Data.Samples, cfg.TestSamples = 32, 16
	}
	cfg.LR, cfg.TargetAcc = t.lr, t.target
	cfg.Seed = r.seed
	cfg.EvalEvery = max(cfg.Data.Samples/(cfg.World*cfg.BatchSize)/2, 1)
	return cfg
}

// jobFacts is what must repeat exactly when a job is run again.
type jobFacts struct {
	Fingerprint string  `json:"fingerprint"`
	SimSeconds  float64 `json:"sim_seconds"`
	Checksum    float64 `json:"checksum"`
	FinalAcc    float64 `json:"final_acc"`
}

// trainJob is the train_job workload: closed loop, one caller, core.Run of
// the ResNet18 twin then the ViT-Base-16 twin, repeated. No engine, cache or
// server is on the path.
func trainJob(r *run) (outcome, error) {
	var out outcome
	cfgs := make([]core.Config, len(twins))
	rigs := make([]*rig, len(twins))

	// Set-up: inputs and models at the jobs' shapes, and one short job that
	// starts the kernel pool.
	for i := 0; i < setupReps(r); i++ {
		start := time.Now()
		for j, t := range twins {
			// 768 samples and three epochs: one dense, two pruned.
			cfgs[j] = twinConfig(r, t, 768, 3)
			var err error
			if rigs[j], err = newRig(cfgs[j]); err != nil {
				return out, err
			}
		}
		warm := cfgs[0]
		warm.Data.Samples, warm.TestSamples, warm.Epochs = 2*warm.World*warm.BatchSize, 16, 2
		if _, err := core.Run(warm); err != nil {
			return out, err
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
	}

	facts := make(map[string]jobFacts)
	walls := make([][]float64, len(twins))
	results := make([]*core.Result, len(twins))
	var untraced, traced []float64 // pair walls
	start := time.Now()
	for n := 0; r.more(start, n); n++ {
		tr := r.tracerFor(n)
		pair := 0.0
		for j, t := range twins {
			id := tr.begin("core.run_"+t.key, cfgs[j].Fingerprint(), 0)
			jobStart := time.Now()
			res, err := core.Run(cfgs[j])
			wall := time.Since(jobStart).Seconds()
			tr.end(id)
			r.attempted++
			if err != nil {
				r.fail("%s: %v", t.model, err)
				continue
			}
			results[j] = res
			walls[j] = append(walls[j], wall)
			pair += wall
			samples := float64(res.Iterations * harnessBatch * cfgs[j].World)
			out.simSamples += samples
			out.simSeconds += res.SimSeconds

			for rank, sum := range res.WeightChecksums {
				if sum != res.WeightChecksums[0] {
					r.fail("%s: rank %d diverged from rank 0", t.model, rank)
				}
			}
			got := jobFacts{cfgs[j].Fingerprint(), res.SimSeconds, res.WeightChecksums[0], res.FinalAcc}
			if first, ok := facts[t.key]; ok && first != got {
				r.fail("%s: repetition %d differs from the first: %+v vs %+v", t.model, n, got, first)
			}
			facts[t.key] = got
		}
		if tr == nil {
			untraced = append(untraced, pair)
		} else {
			traced = append(traced, pair)
		}
	}
	out.ops = append(untraced, traced...)
	out.tail = out.ops
	checkGolden(r, "train_job", facts)
	for j, t := range twins {
		if results[j] == nil {
			return out, fmt.Errorf("train_job: %s never finished", t.model)
		}
		out.work += float64(results[j].Iterations * harnessBatch * cfgs[j].World)
	}
	out.busy = median(out.ops)
	if r.tr != nil {
		r.set("trace.overhead_frac", max(median(traced)/median(untraced)-1, 0))
		if err := trainLayers(r, cfgs, rigs, results, walls); err != nil {
			return out, err
		}
	}
	return out, nil
}

// trainLayers attributes one job of each twin to its layers. Every probe
// replays a layer's public calls at the job's own shapes (CPU seconds per
// call, kernel budget 1) and is multiplied by the call count read off the
// job's Result. CPU seconds divide by the core count; the live collective is
// wall of its own, because the ranks meet in it. What is left over —
// rendezvous wait, garbage collection, hook glue — is core.unattributed_frac.
func trainLayers(r *run, cfgs []core.Config, rigs []*rig, results []*core.Result, walls [][]float64) error {
	cores := float64(runtime.GOMAXPROCS(0))
	for j, t := range twins {
		cfg, g, res := cfgs[j], rigs[j], results[j]
		world, iters := float64(cfg.World), float64(res.Iterations)
		steps := world * iters
		evals := float64(len(res.Curve.Points))

		c := r.computeProbes(t.key, g)
		var eval float64
		withBudget(1, func() { eval = r.probe("nn."+t.key+"_eval", g.evaluate) })
		r.set("nn."+t.key+"_fwd_ms", c.fwd*steps*1e3)
		r.set("nn."+t.key+"_bwd_ms", c.bwd*steps*1e3)
		r.set("nn."+t.key+"_opt_ms", c.opt*steps*1e3)
		r.set("nn."+t.key+"_eval_ms", eval*evals*1e3)
		r.set("par."+t.key+"_speedup_x", r.stepSpeedup(t.key, g))
		r.set("core."+t.key+"_job_ms", median(walls[j])*1e3)
		if t.key != "conv" {
			continue
		}

		// The compression plane, the live collective and the exact counts
		// are reported for the ResNet18 job.
		p, err := r.planeProbes("conv_", g)
		if err != nil {
			return err
		}
		generate := r.probe("data.generate", func() {
			full := cfg.Data
			full.Samples += cfg.TestSamples
			probeSink += float64(data.Generate(full).Len())
		})
		live := r.liveCollective("collective.conv_allreduce_live", g, false)
		r.set("data.generate_ms", generate*1e3)
		r.set("gse.conv_enforce_us", p.enforce*1e6)
		r.set("masktracker.conv_observe_us", p.observe*1e6)
		r.set("ddp.conv_gather_scatter_us", p.gatherScatter*1e6)
		r.set("compress.conv_enc_tern_us", p.encTern*1e6)
		r.set("compress.conv_dec_tern_us", p.decTern*1e6)
		r.set("prune.conv_mask_ms", p.mask*1e3)
		r.set("collective.conv_allreduce_live_us", live*1e6)

		compact := res.StableFraction
		pruned := steps * float64(cfg.Epochs-cfg.PretrainEpochs) / float64(cfg.Epochs)
		cpu := steps*(c.fwd+c.bwd+c.opt+p.gatherScatter) + evals*eval + generate +
			2*pruned*p.enforce + world*p.mask +
			steps*(1-compact)*p.observe + steps*compact*(p.encTern+p.decTern)
		attributed := cpu/cores + live*iters
		r.set("core.unattributed_frac", max(1-attributed/median(walls[j]), 0))

		ops := 0
		for _, it := range res.CommLog.Iters {
			ops += len(it)
		}
		r.set("core.iters", iters)
		r.set("core.comm_ops", float64(ops))
		r.set("core.compact_frac", compact)
		r.set("prune.sparsity", res.MaskSparsity)
		r.set("collective.wire_mb", res.Stats.PayloadBytes/1e6)
	}
	return nil
}
