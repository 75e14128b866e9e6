package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"pactrain/internal/adaptive"
	"pactrain/internal/collective"
	"pactrain/internal/compress"
	"pactrain/internal/core"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/gse"
	"pactrain/internal/harness/engine"
	"pactrain/internal/masktracker"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
	"pactrain/internal/par"
	"pactrain/internal/prune"
	"pactrain/internal/simclock"
	"pactrain/internal/tensor"
)

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink float64

// probe replays one public call of a layer and returns the median seconds of
// a call: a few warm-up calls, then 30 timed samples. A call shorter than
// 20 µs is batched so the clock's own cost stays below a percent.
func (r *run) probe(name string, fn func()) float64 {
	id := r.tr.begin("probe."+name, "", 0)
	defer r.tr.end(id)
	warm, samples := 3, 30
	if r.tiny {
		warm, samples = 1, 3
	}
	for i := 0; i < warm; i++ {
		fn()
	}
	start := time.Now()
	fn()
	batch := 1
	if d := time.Since(start); d < 20*time.Microsecond {
		batch = int(20*time.Microsecond/max(d, time.Nanosecond)) + 1
	}
	xs := make([]float64, samples)
	for i := range xs {
		start := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		xs[i] = time.Since(start).Seconds() / float64(batch)
	}
	return median(xs)
}

// withBudget runs fn under an explicit kernel budget. Per-call probes run at
// budget 1, so a probe times the CPU seconds of a call and the sum over a
// job's calls divides by the core count.
func withBudget(budget int, fn func()) {
	prev := par.Budget()
	par.SetBudget(budget)
	defer par.SetBudget(prev)
	fn()
}

// rig is one worker's state at a training configuration's own shapes: the
// lite twin, its real DDP bucket geometry, one batch, a pruning mask, a
// gradient as backward leaves it, and the stable mask-compact encoders the
// PacTrain hook would hold.
type rig struct {
	cfg      core.Config
	model    *nn.Model
	opt      *nn.SGD
	buckets  []*ddp.Bucket
	train    *data.Dataset
	test     *data.Dataset
	x        *tensor.Tensor
	labels   []int
	mask     *prune.Mask
	compacts []*compress.MaskCompact
}

func newRig(cfg core.Config) (*rig, error) {
	model, err := nn.NewLiteByName(cfg.ModelName, cfg.Lite)
	if err != nil {
		return nil, err
	}
	full := cfg.Data
	full.Samples += cfg.TestSamples
	train, test := data.Split(data.Generate(full), cfg.TestSamples)
	g := &rig{cfg: cfg, model: model, train: train, test: test,
		opt:     nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay),
		buckets: ddp.BuildBuckets(model, cfg.BucketBytes)}
	g.x, g.labels = train.Batch(0, cfg.BatchSize)
	return g, nil
}

func (g *rig) forward() *tensor.Tensor {
	out := g.model.Forward(g.x, true)
	loss, grad := nn.SoftmaxCrossEntropy(out, g.labels)
	probeSink += loss
	return grad
}

func (g *rig) backward(grad *tensor.Tensor) {
	g.model.ZeroGrad()
	g.model.Backward(grad)
}

// evaluate is the trainer's evaluation loop over the test split.
func (g *rig) evaluate() {
	const chunk = 64
	for from := 0; from < g.test.Len(); from += chunk {
		x, labels := g.test.Batch(from, chunk)
		probeSink += nn.Accuracy(g.model.Forward(x, false), labels)
	}
}

// prunedGradient prunes the model as the trainer does after the dense
// epochs, leaves a sparsity-enforced gradient in every bucket, and installs
// the masks a stable Mask Tracker would hand the compact encoders.
func (g *rig) prunedGradient(ternary bool) error {
	mask, err := prune.MagnitudePrune(g.model, g.cfg.PruneRatio, g.cfg.PruneMethod)
	if err != nil {
		return err
	}
	g.mask = mask
	mask.Apply(g.model)
	g.backward(g.forward())
	gse.Enforce(g.model, mask)
	g.compacts = nil
	for _, b := range g.buckets {
		b.Gather()
		tr := masktracker.New(g.cfg.StableWindow)
		tr.Observe(b.Flat)
		mc := compress.NewMaskCompact(ternary, g.cfg.Seed*131+uint64(b.Index))
		mc.SetMask(tr.Indices(), b.Elements())
		g.compacts = append(g.compacts, mc)
	}
	return nil
}

func (g *rig) elements() int {
	n := 0
	for _, b := range g.buckets {
		n += b.Elements()
	}
	return n
}

// computeCost is the model-compute calls of one training step, in CPU
// seconds per call.
type computeCost struct{ fwd, bwd, opt float64 }

func (r *run) computeProbes(key string, g *rig) computeCost {
	var c computeCost
	withBudget(1, func() {
		grad := g.forward()
		c.fwd = r.probe("nn."+key+"_fwd", func() { g.forward() })
		c.bwd = r.probe("nn."+key+"_bwd", func() { g.backward(grad) })
		c.opt = r.probe("nn."+key+"_opt", func() { g.opt.Step(g.model.Params()) })
	})
	return c
}

// stepSpeedup is a full training step at kernel budget 1 over the same step
// at GOMAXPROCS: at or below 1, the parallel kernels do not pay.
func (r *run) stepSpeedup(key string, g *rig) float64 {
	step := func() {
		g.backward(g.forward())
		g.opt.Step(g.model.Params())
	}
	var serial, parallel float64
	withBudget(1, func() { serial = r.probe("par."+key+"_step_b1", step) })
	withBudget(runtime.GOMAXPROCS(0), func() { parallel = r.probe("par."+key+"_step_bN", step) })
	return serial / parallel
}

// planeCost is the compression plane of one iteration on one worker, summed
// over the twin's buckets, in CPU seconds.
type planeCost struct {
	enforce, observe, gatherScatter, encTern, decTern, mask float64
}

func (r *run) planeProbes(prefix string, g *rig) (planeCost, error) {
	var c planeCost
	var err error
	withBudget(1, func() {
		if err = g.prunedGradient(true); err != nil {
			return
		}
		c.enforce = r.probe("gse."+prefix+"enforce", func() { gse.Enforce(g.model, g.mask) })
		trackers := make([]*masktracker.Tracker, len(g.buckets))
		for i := range trackers {
			trackers[i] = masktracker.New(g.cfg.StableWindow)
		}
		c.observe = r.probe("masktracker."+prefix+"observe", func() {
			for i, b := range g.buckets {
				probeSink += float64(trackers[i].Observe(b.Flat).NNZ)
			}
		})
		inv := 1 / float32(g.cfg.World)
		c.gatherScatter = r.probe("ddp."+prefix+"gather_scatter", func() {
			for _, b := range g.buckets {
				b.Gather()
				b.Scale(inv)
				b.Scatter()
			}
		})
		bufs := make([][]float32, len(g.buckets))
		c.encTern = r.probe("compress."+prefix+"enc_tern", func() {
			for i, b := range g.buckets {
				bufs[i] = g.compacts[i].EncodeInto(b.Flat, bufs[i])
			}
		})
		outs := make([][]float32, len(g.buckets))
		for i, b := range g.buckets {
			outs[i] = make([]float32, b.Elements())
		}
		c.decTern = r.probe("compress."+prefix+"dec_tern", func() {
			for i := range g.buckets {
				g.compacts[i].Decode(bufs[i], outs[i])
			}
		})
		c.mask = r.probe("prune."+prefix+"mask", func() {
			m, perr := prune.MagnitudePrune(g.model, g.cfg.PruneRatio, g.cfg.PruneMethod)
			if perr != nil {
				panic(perr)
			}
			m.Apply(g.model)
		})
	})
	return c, err
}

// liveCollective times one iteration's rendezvous on a live cluster: world
// goroutines each push every bucket through the collective, and the probe is
// the wall until the last of them returns. Dense is the fp32 all-reduce;
// sparse is the all-gather of every rank's top-1% selection.
func (r *run) liveCollective(name string, g *rig, sparse bool) float64 {
	world := g.cfg.World
	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: g.cfg.BottleneckBps})
	cluster := collective.NewCluster(world, netsim.NewFabric(topo))
	topk := compress.NewTopK(0.01)
	vecs := make([][][]float32, world)
	picks := make([][]collective.SparsePayload, world)
	for rank := range vecs {
		for _, b := range g.buckets {
			vecs[rank] = append(vecs[rank], append([]float32(nil), b.Flat...))
			picks[rank] = append(picks[rank], topk.Encode(b.Flat))
		}
	}
	return r.probe(name, func() {
		var wg sync.WaitGroup
		for rank := 0; rank < world; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for i, v := range vecs[rank] {
					if sparse {
						cluster.AllGatherSparse(rank, picks[rank][i], collective.WireSparse, 0)
					} else {
						cluster.AllReduceSum(rank, v, collective.WireFP32, 0)
					}
				}
			}(rank)
		}
		wg.Wait()
	})
}

// schemeProbes times every compression scheme's encode (and the sparse
// schemes' decode) over one iteration's buckets and sets its exact wire
// ratio: bytes on the wire over fp32 bytes.
func (r *run) schemeProbes(g *rig) error {
	dense := []string{"fp16", "terngrad", "qsgd", "thc"}
	sparse := []string{"topk-0.1", "topk-0.01", "randomk-0.1", "dgc-0.01"}
	decoded := map[string]bool{"topk-0.01": true, "dgc-0.01": true}
	fp32 := collective.WireFP32.MessageBytes(g.elements())
	var err error
	withBudget(1, func() {
		for _, name := range dense {
			var comp compress.Compressor
			if comp, err = compress.ByName(name, g.cfg.Seed); err != nil {
				return
			}
			dc := comp.(compress.DenseCompressor)
			wire := 0.0
			d := r.probe("compress.enc_"+name, func() {
				wire = 0
				for _, b := range g.buckets {
					wire += dc.Wire().MessageBytes(len(dc.Encode(b.Flat)))
				}
			})
			r.set("compress.enc_"+name+"_us", d*1e6)
			r.set("compress.ratio_"+name, wire/fp32)
		}
		for _, name := range sparse {
			// One compressor per bucket, as the sparse hook keeps them (DGC
			// carries per-bucket momentum state).
			comps := make([]compress.SparseCompressor, len(g.buckets))
			for i := range comps {
				var comp compress.Compressor
				if comp, err = compress.ByName(name, g.cfg.Seed); err != nil {
					return
				}
				comps[i] = comp.(compress.SparseCompressor)
			}
			payloads := make([]collective.SparsePayload, len(g.buckets))
			wire := 0.0
			d := r.probe("compress.enc_"+name, func() {
				wire = 0
				for i, b := range g.buckets {
					payloads[i] = comps[i].Encode(b.Flat)
					wire += comps[i].Wire().MessageBytes(len(payloads[i].Values))
				}
			})
			r.set("compress.enc_"+name+"_us", d*1e6)
			r.set("compress.ratio_"+name, wire/fp32)
			if decoded[name] {
				out := make([]float32, g.elements())
				d := r.probe("compress.dec_"+name, func() {
					for i := range g.buckets {
						comps[i].DecodeSum(payloads[i], out)
					}
				})
				r.set("compress.dec_"+name+"_us", d*1e6)
			}
		}
		for _, ternary := range []bool{false, true} {
			name := "maskcompact"
			if ternary {
				name += "-tern"
			}
			if err = g.prunedGradient(ternary); err != nil {
				return
			}
			bufs := make([][]float32, len(g.buckets))
			wire := 0.0
			d := r.probe("compress.enc_"+name, func() {
				wire = 0
				for i, b := range g.buckets {
					bufs[i] = g.compacts[i].EncodeInto(b.Flat, bufs[i])
					wire += g.compacts[i].Wire().MessageBytes(len(bufs[i]))
				}
			})
			out := make([]float32, g.elements())
			dd := r.probe("compress.dec_"+name, func() {
				for i := range g.buckets {
					g.compacts[i].Decode(bufs[i], out[:g.buckets[i].Elements()])
				}
			})
			r.set("compress.enc_"+name+"_us", d*1e6)
			r.set("compress.dec_"+name+"_us", dd*1e6)
			r.set("compress.ratio_"+name, wire/fp32)
		}
	})
	return err
}

// costPlaneProbes times the calls the re-costing, replay and pricing paths
// make: one priced all-reduce under each algorithm on the Fig. 4 fabric and
// on the racked 4,096-host fabric, one fabric transfer, one iteration's
// timeline composition at 8 and at 4,096 ranks, one recorded iteration's
// re-pricing, and one config fingerprint.
func (r *run) costPlaneProbes(res *core.Result, cfg core.Config) {
	const elems = 1 << 20
	fig4 := netsim.NewFabric(netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: netsim.Gbps}))
	hosts := fig4.Topo.Hosts()
	for _, name := range []string{"ring", "tree", "hierarchical"} {
		alg := collective.MustAlgorithm(name)
		d := r.probe("collective.cost_"+name, func() {
			probeSink += alg.AllReduce(fig4, hosts, elems, collective.WireFP32, 0)
		})
		r.set("collective.cost_"+name[:4]+"_us", d*1e6)
	}
	racks, perRack := 64, 64
	if r.tiny {
		racks, perRack = 4, 4
	}
	racked := netsim.NewFabric(netsim.RackedTopology(netsim.RackedOptions{Racks: racks, HostsPerRack: perRack}))
	rackedHosts := racked.Topo.Hosts()
	hier := collective.MustAlgorithm("hierarchical")
	r.set("collective.cost_hier_4096_us", 1e6*r.probe("collective.cost_hier_4096", func() {
		probeSink += hier.AllReduce(racked, rackedHosts, elems, collective.WireFP32, 0)
	}))
	r.set("netsim.transfer_ns", 1e9*r.probe("netsim.transfer", func() {
		d, err := fig4.TransferTime(hosts[0], hosts[len(hosts)-1], 1<<20, 0)
		if err != nil {
			panic(err)
		}
		probeSink += d
	}))
	for _, world := range []int{8, len(rackedHosts)} {
		name := fmt.Sprintf("simclock.compose_%d", world)
		if world != 8 {
			name = "simclock.compose_4096"
		}
		r.set(name+"_us", 1e6*r.probe(name, composeIteration(world)))
	}
	if res != nil && res.CommLog != nil && len(res.CommLog.Iters) > 0 {
		ops := res.CommLog.Iters[len(res.CommLog.Iters)-1]
		ring := collective.MustAlgorithm("ring")
		r.set("core.costiter_us", 1e6*r.probe("core.costiter", func() {
			probeSink += core.CostIter(ops, ring, fig4, hosts[:cfg.World], 0)
		}))
	}
	r.set("core.fingerprint_us", 1e6*r.probe("core.fingerprint", func() {
		probeSink += float64(len(cfg.Fingerprint()))
	}))
}

// composeIteration is one iteration of per-bucket barrier composition over
// heterogeneous ranks (one slow rank forces the per-rank path), as the
// timeline re-coster drives it.
func composeIteration(world int) func() {
	buckets := []int{1 << 18, 1 << 18, 1 << 18, 1 << 18}
	prefix := simclock.PrefixShares(buckets)
	rc := ddp.RankCompute{Multipliers: netsim.OneSlowRank(world, 2)}
	tl := simclock.NewTimeline(world)
	scheds := make([]simclock.IterSchedule, world)
	comp := simclock.NewIterComposer(scheds)
	k := 0
	return func() {
		for rank := range scheds {
			scale := rc.Scale(rank, k)
			scheds[rank] = simclock.NewIterSchedule(tl.Clock(rank), 0.006*scale, 0.012*scale, prefix)
		}
		comp.Reset()
		commEnd := math.Inf(-1)
		for b := range buckets {
			launch := max(comp.Barrier(b), commEnd)
			commEnd = launch + 0.003
		}
		comp.FinishInto(tl, commEnd)
		probeSink += tl.Clock(0)
		k++
	}
}

// adaptiveProbe times one controller decision over all four wire formats on
// the fabric the adaptive experiment prices against.
func (r *run) adaptiveProbe() float64 {
	fabric := netsim.NewFabric(netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: 100 * netsim.Mbps}))
	ctrl := adaptive.New(adaptive.Options{
		Algorithm: collective.MustAlgorithm("ring"),
		Fabric:    fabric,
		Hosts:     fabric.Topo.Hosts(),
		WireScale: 100,
	})
	t := 0.0
	return r.probe("adaptive.decide", func() {
		probeSink += float64(len(ctrl.Decide(0, 1<<14, 1<<13, t).Quotes))
		t += 0.01
	})
}

// memoHitProbe times Engine.Run of a job the engine has already completed:
// the fingerprint plus the singleflight lookup.
func (r *run) memoHitProbe(cfg core.Config) (float64, error) {
	eng := engine.New(engine.Options{Parallelism: 1})
	cfg.ModelName, cfg.Scheme = "MLP", "all-reduce"
	cfg.Data.Samples, cfg.TestSamples, cfg.Epochs, cfg.World = 32, 16, 1, 2
	job := engine.Job{Label: "probe memo", Config: cfg}
	if _, err := eng.Run(job); err != nil {
		return 0, err
	}
	return r.probe("engine.memo_hit", func() {
		res, err := eng.Run(job)
		if err != nil {
			panic(err)
		}
		probeSink += res.SimSeconds
	}), nil
}
