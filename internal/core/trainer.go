package core

import (
	"fmt"
	"sync"
	"time"

	"pactrain/internal/collective"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/gse"
	"pactrain/internal/metrics"
	"pactrain/internal/nn"
	"pactrain/internal/prune"
	"pactrain/internal/tensor"
)

// Result summarizes one distributed training run.
type Result struct {
	Scheme string
	Model  string
	// Collective is the canonical collective-algorithm name the run's
	// simulated clock was priced under ("ring" unless configured otherwise).
	Collective string

	// Curve holds rank 0's evaluation trajectory against simulated time.
	Curve metrics.Curve
	// FinalAcc and BestAcc summarize the trajectory.
	FinalAcc float64
	BestAcc  float64
	// TTASeconds is the simulated time to reach Config.TargetAcc; if
	// ReachedTarget is false it is the end-of-run time (a lower bound).
	TTASeconds    float64
	ReachedTarget bool

	Iterations int
	EpochsRun  int
	// SimSeconds is the total simulated training time.
	SimSeconds float64
	// WallSeconds is the host wall-clock cost of the run.
	WallSeconds float64

	// Stats aggregates rank 0's communication accounting.
	Stats Stats
	// CommLog holds rank 0's per-iteration operation log, enabling
	// bandwidth re-costing. A Result decoded from elsewhere may lack it.
	CommLog *CommLog

	// StableFraction is the fraction of PacTrain bucket syncs that used the
	// compact path — for the adaptive scheme, the controller-driven
	// fraction (0 for other schemes).
	StableFraction float64
	// MaskSparsity is the fraction of pruned weights (0 when not pruning).
	MaskSparsity float64

	// AdaptiveDecisions counts, for the adaptive scheme, how many
	// controller rounds landed on each candidate wire format (nil for
	// every other scheme); AdaptiveSwitches counts completed format
	// switches. The per-round decisions themselves are in CommLog.
	AdaptiveDecisions map[string]int `json:",omitempty"`
	AdaptiveSwitches  int            `json:",omitempty"`

	// WeightChecksums holds one end-of-training weight checksum per rank;
	// equal values certify that the replicas never diverged.
	WeightChecksums []float64
}

// Run executes one distributed training run: cfg.World worker goroutines
// train identical model replicas on disjoint shards, synchronizing through
// the configured scheme over the simulated fabric, while rank 0 evaluates
// against simulated time.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Equal shard sizes keep every worker's collective sequence in
	// lockstep, as DistributedSampler's padding does.
	cfg.Data.Samples = cfg.shardSamples() * cfg.World

	start := time.Now()
	fabric := cfg.NewFabric()
	algo, err := collective.AlgorithmByName(cfg.Collective)
	if err != nil {
		return nil, err
	}

	// Train and test splits must share class prototypes, so generate one
	// dataset and split off the tail for evaluation.
	fullCfg := cfg.Data
	fullCfg.Samples = cfg.Data.Samples + cfg.TestSamples
	trainSet, testSet := data.Split(memoDataset(fullCfg), cfg.TestSamples)

	res := &Result{Scheme: cfg.Scheme, Model: cfg.ModelName, Collective: cfg.Collective,
		CommLog: &CommLog{}, WeightChecksums: make([]float64, cfg.World)}

	errs := make([]error, cfg.World)
	var shared sharedMask
	env := hookEnv{cluster: collective.NewCluster(cfg.World, fabric), world: cfg.World, algo: algo,
		fabric: fabric, hosts: fabric.Topo.Hosts()[:cfg.World], trackers: new(sync.Map)}
	eval := &evaluator{cfg: &cfg, testSet: testSet, curve: &res.Curve}
	var wg sync.WaitGroup
	for rank := 0; rank < cfg.World; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = runWorker(&cfg, rank, env, &shared, trainSet, eval, res)
		}(rank)
	}
	wg.Wait()
	eval.wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res.FinalAcc = res.Curve.FinalAcc()
	res.BestAcc = res.Curve.BestAcc()
	res.TTASeconds, res.ReachedTarget = res.Curve.TTA(cfg.TargetAcc)
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// rankStartHook, when a test sets it, runs on every rank goroutine before the
// rank builds its model.
var rankStartHook func()

// maskHook, when a test sets it, runs on every rank goroutine at the pruning
// step, before the mask touches the rank's replica.
var maskHook func(rank int, model *nn.Model, mask *prune.Mask)

// syncHook, when a test sets it, runs on every rank after each sync scatters.
var syncHook func(rank int, model *nn.Model, hook ddp.Hook)

// sharedMask is a run's magnitude mask: the weights it derives from are
// replica-identical, so whichever rank reaches the pruning epoch first
// derives it and every rank reads it — the paper's global knowledge.
type sharedMask struct {
	once sync.Once
	mask *prune.Mask
	err  error
}

// runWorker is the per-rank training loop (Algorithm 1). env is the run's
// hookEnv, which the worker completes with its rank and wire scale.
func runWorker(cfg *Config, rank int, env hookEnv, shared *sharedMask,
	trainSet *data.Dataset, eval *evaluator, res *Result) error {

	if rankStartHook != nil {
		rankStartHook()
	}
	model, err := nn.NewLiteByName(cfg.ModelName, cfg.Lite)
	if err != nil {
		return err
	}
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	shard := data.ShardDataset(trainSet, rank, cfg.World)
	buckets := ddp.BuildBuckets(model, cfg.BucketBytes)

	elems := make([]int, len(buckets))
	for i, b := range buckets {
		elems[i] = b.Elements()
	}
	// The per-rank timeline (DESIGN.md §9): walking every rank's compute
	// from the config gives each bucket's synchronized launch — the instant
	// lockstep decisions and the recorded log see — with no rendezvous.
	walk := newClockWalk(cfg, elems, true)

	// Price the lite twin's buckets as slices of the full-size model's
	// gradient: each logical element carries Profile.Params/liteParams
	// wire elements (DESIGN.md §1).
	env.rank, env.wireScale = rank, 1
	if cfg.Profile.Params > 0 && model.NumParameters() > 0 {
		env.wireScale = float64(cfg.Profile.Params) / float64(model.NumParameters())
	}
	if rank == 0 {
		env.log, env.stats = res.CommLog, &res.Stats
		env.log.SetBuckets(elems)
	}
	hook, err := buildHook(cfg, &env)
	if err != nil {
		return err
	}
	// The PacTrain-family schemes share one hook type; everything the
	// trainer asks of a hook beyond Sync is asked of it (nil otherwise).
	pac, _ := hook.(*pacTrainHook)

	var mask *prune.Mask
	simTime := 0.0
	iter := 0
	lastLoss := 0.0

	// evalAt hands rank 0's state to the evaluator at every evaluation point:
	// each EvalEvery iterations, or at the end of each epoch when it is 0.
	evalAt := func(epoch int, endOfEpoch bool) error {
		due := endOfEpoch
		if cfg.EvalEvery > 0 {
			due = !endOfEpoch && iter%cfg.EvalEvery == 0
		}
		if rank != 0 || !due {
			return nil
		}
		return eval.snapshot(model, pac, metrics.Point{Iter: iter, Epoch: epoch, SimTime: simTime, Loss: lastLoss})
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		opt.LR = nn.CosineLR(cfg.LR, cfg.LR*0.1, epoch, cfg.Epochs)

		// Algorithm 1 line 2: prune once the warm-up ("pre-trained model")
		// phase completes. The mask derives deterministically from state all
		// replicas share, so it is identical everywhere without extra
		// communication; the Mask Tracker still pays the bitmap re-share
		// when it sees the pattern move.
		if cfg.IsPacTrain() && mask == nil && epoch == cfg.PretrainEpochs {
			mask, err = buildMask(cfg, model, trainSet, shared)
			if err != nil {
				return err
			}
			if maskHook != nil {
				maskHook(rank, model, mask)
			}
			mask.Apply(model)
			gse.ZeroVelocity(opt, model, mask)
			if pac != nil {
				pac.NotifyMaskInvalidated()
			}
			if rank == 0 {
				res.MaskSparsity = mask.Sparsity()
			}
		}

		rng := tensor.NewRNG(cfg.Seed*7919 + uint64(rank)*101 + uint64(epoch))
		next := shard.Batches(cfg.BatchSize, rng)
		for {
			x, labels, ok := next()
			if !ok {
				break
			}
			if env.log != nil {
				env.log.StartIter()
			}

			out := model.Forward(x, true)
			loss, grad := nn.SoftmaxCrossEntropy(out, labels)
			lastLoss = loss
			model.ZeroGrad()
			model.Backward(grad)
			if mask != nil {
				gse.Enforce(model, mask) // Eq. 2, every iteration
			}

			// Simulated compute, then bucket-by-bucket synchronization: the
			// walk Replay states once (replay.go), driven live.
			walk.startIter(iter)
			for i, b := range buckets {
				b.Gather()
				walk.free = hook.Sync(b, walk.launch(i))
			}
			simTime = walk.finish(rank)
			// Hooks deliver the mean gradient, +0 where GSE zeroed every rank's.
			for _, b := range buckets {
				b.Scatter()
			}
			if syncHook != nil {
				syncHook(rank, model, hook)
			}
			opt.Step(model.Params())
			iter++

			if err := evalAt(epoch, false); err != nil {
				return err
			}
		}
		if err := evalAt(epoch, true); err != nil {
			return err
		}
	}

	var checksum float64
	for _, p := range model.Params() {
		checksum += p.W.Sum()
	}
	res.WeightChecksums[rank] = checksum

	if rank == 0 {
		res.Iterations = iter
		res.EpochsRun = cfg.Epochs
		res.SimSeconds = simTime
		if pac != nil {
			res.StableFraction = pac.StableFraction()
			res.AdaptiveDecisions, res.AdaptiveSwitches = pac.FormatCounts()
		}
	}
	return nil
}

// buildMask returns the pruning mask for the configured method. Magnitude
// methods depend only on the
// (replica-identical) weights, so the run derives that mask once and shares
// it. GraSP stays per rank: its probe pass is a train-mode forward/backward
// that moves layer state (BatchNorm statistics), which must move identically
// on every replica; the probe batch is drawn deterministically from the
// shared dataset so that every worker still computes the same mask.
func buildMask(cfg *Config, model *nn.Model, trainSet *data.Dataset, shared *sharedMask) (*prune.Mask, error) {
	switch cfg.PruneMethod {
	case prune.GlobalMagnitude, prune.LayerMagnitude:
		shared.once.Do(func() {
			shared.mask, shared.err = prune.MagnitudePrune(model, cfg.PruneRatio, cfg.PruneMethod)
		})
		return shared.mask, shared.err
	case prune.GraSP:
		probeN := 64
		if probeN > trainSet.Len() {
			probeN = trainSet.Len()
		}
		x, labels := trainSet.View(0, probeN)
		computeGrads := func() {
			model.ZeroGrad()
			out := model.Forward(x, true)
			_, g := nn.SoftmaxCrossEntropy(out, labels)
			model.Backward(g)
		}
		mask, err := prune.GraSPPrune(model, cfg.PruneRatio, computeGrads)
		model.ZeroGrad()
		return mask, err
	}
	return nil, fmt.Errorf("core: unsupported prune method %v", cfg.PruneMethod)
}
