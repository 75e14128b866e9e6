// Command pactrain-train runs a single distributed training job with full
// control over the workload, aggregation scheme, pruning configuration, and
// simulated network, and reports the accuracy trajectory against simulated
// time.
//
// Examples:
//
//	pactrain-train -model ResNet152 -scheme pactrain-ternary -bw 100mbps
//	pactrain-train -model VGG19 -scheme topk-0.01 -epochs 8 -world 4
//	pactrain-train -model MLP -scheme all-reduce -csv
//	pactrain-train -scheme adaptive -adapt-margin 0.1 -adapt-candidates mask-compact-ternary,index-list
//	pactrain-train -overlap backward -straggler 2 -jitter 0.1   # per-rank timelines
//	pactrain-train -scheme pactrain-ternary -trace run.json -trace-summary
//	pactrain-train -scheme adaptive -audit audit.json -audit-summary
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"pactrain"
	"pactrain/internal/adaptive"
	"pactrain/internal/cli"
	"pactrain/internal/metrics"
	"pactrain/internal/netsim"
	"pactrain/internal/par"
)

func main() { os.Exit(run()) }

func run() int {
	model := flag.String("model", "ResNet18", "workload: VGG19|ResNet18|ResNet152|ViT-Base-16|MLP")
	scheme := flag.String("scheme", "pactrain-ternary", "aggregation scheme (see pactrain.Schemes)")
	straggler := flag.Float64("straggler", 1, "one-slow-rank compute multiplier (1 = uniform cluster)")
	jitter := flag.Float64("jitter", 0, "per-iteration compute jitter fraction in [0,1)")
	bw := flag.String("bw", "1gbps", "Fig. 4 bottleneck bandwidth, e.g. 100mbps, 500mbps, 1gbps")
	world := flag.Int("world", 8, "number of workers")
	epochs := flag.Int("epochs", 12, "training epochs")
	batch := flag.Int("batch", 8, "per-worker batch size")
	lr := flag.Float64("lr", 0.1, "base learning rate (cosine-annealed)")
	pruneRatio := flag.Float64("prune-ratio", 0.5, "PacTrain pruning ratio")
	pruneMethod := flag.String("prune-method", "global-magnitude", "global-magnitude|layer-magnitude|grasp")
	pretrain := flag.Int("pretrain-epochs", 1, "dense warm-up epochs before pruning")
	window := flag.Int("stable-window", 2, "Mask Tracker stability window")
	samples := flag.Int("samples", 1024, "synthetic training samples")
	target := flag.Float64("target", 0.8, "target accuracy for TTA")
	seed := flag.Uint64("seed", 1, "run seed")
	csv := flag.Bool("csv", false, "emit the accuracy curve as CSV")
	adaptMargin := flag.Float64("adapt-margin", 0, "adaptive scheme: hysteresis win margin (0 = default)")
	adaptDwell := flag.Int("adapt-dwell", 0, "adaptive scheme: challenger rounds before a format switch (0 = default)")
	adaptCandidates := flag.String("adapt-candidates", "", "adaptive scheme: comma-separated candidate formats (empty = all)")
	kernelParallel := flag.Int("kernel-parallel", runtime.GOMAXPROCS(0),
		"cores the model-compute and compression kernels may occupy, shared by the run's ranks (results are bit-identical at any value)")
	common := cli.Register(flag.CommandLine)
	flag.Parse()

	overlapMode, err := common.Check()
	if err != nil {
		return cli.Usage(err)
	}
	bottleneck, err := netsim.ParseBandwidth(*bw)
	if err != nil {
		return cli.Usage(fmt.Errorf("-bw: %w", err))
	}

	par.SetBudget(*kernelParallel)
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return cli.Usage(err)
	}
	defer stopProfiles()

	cfg := pactrain.DefaultConfig(*model, *scheme)
	cfg.World = *world
	cfg.Collective = *common.Collective
	cfg.Overlap = overlapMode
	if *straggler != 1 {
		cfg.RankCompute.Multipliers = pactrain.OneSlowRank(*world, *straggler)
	}
	cfg.RankCompute.JitterFrac = *jitter
	cfg.RankCompute.JitterSeed = *seed
	cfg.BottleneckBps = bottleneck
	cfg.Epochs = *epochs
	cfg.BatchSize = *batch
	cfg.LR = *lr
	cfg.PruneRatio = *pruneRatio
	cfg.PretrainEpochs = *pretrain
	cfg.StableWindow = *window
	cfg.Data.Samples = *samples
	cfg.TargetAcc = *target
	cfg.Seed = *seed
	cfg.AdaptMargin = *adaptMargin
	cfg.AdaptDwell = *adaptDwell
	if *adaptCandidates != "" {
		cfg.AdaptCandidates = strings.Split(*adaptCandidates, ",")
	}
	switch *pruneMethod {
	case "global-magnitude":
		cfg.PruneMethod = pactrain.GlobalMagnitude
	case "layer-magnitude":
		cfg.PruneMethod = pactrain.LayerMagnitude
	case "grasp":
		cfg.PruneMethod = pactrain.GraSP
	default:
		return cli.Usage(fmt.Errorf("-prune-method: unknown method %q", *pruneMethod))
	}

	res, err := pactrain.Train(cfg)
	if err != nil {
		return cli.Fail(err)
	}

	if *common.TracePath != "" {
		tracer := pactrain.NewTracer()
		err := pactrain.TraceRun(tracer, fmt.Sprintf("%s %s", res.Model, res.Scheme), cfg, res)
		if err == nil {
			err = pactrain.WriteTrace(tracer, *common.TracePath)
		}
		if err != nil {
			return cli.Fail(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s\n", *common.TracePath)
		if *common.TraceSummary {
			fmt.Fprint(os.Stderr, pactrain.TraceSummary(tracer))
		}
	}

	if *common.AuditPath != "" {
		rep, err := pactrain.AuditRun(fmt.Sprintf("%s %s", res.Model, res.Scheme), cfg, res,
			pactrain.AuditOptions{StalenessSec: *common.AuditStaleness, IncludeRounds: true})
		if err != nil {
			return cli.Fail(err)
		}
		if rep.DecidedRounds == 0 {
			fmt.Fprintf(os.Stderr, "audit: no controller decisions to ledger (scheme %q is static)\n", res.Scheme)
		}
		if err := pactrain.WriteAuditReports(*common.AuditPath, []*pactrain.AuditReport{rep}); err != nil {
			return cli.Fail(err)
		}
		fmt.Fprintf(os.Stderr, "audit: %s\n", *common.AuditPath)
		if *common.AuditSummary {
			fmt.Fprint(os.Stderr, rep.Render())
		}
	}

	if *csv {
		fmt.Print(res.Curve.CSV())
		return 0
	}

	fmt.Printf("model        %s\n", res.Model)
	fmt.Printf("scheme       %s\n", res.Scheme)
	fmt.Printf("collective   %s\n", res.Collective)
	fmt.Printf("overlap      %s\n", overlapMode)
	fmt.Printf("workers      %d @ %s bottleneck (Fig. 4)\n", *world, *bw)
	if *straggler != 1 || *jitter > 0 {
		fmt.Printf("stragglers   last rank %g× slower, ±%.0f%% jitter\n", *straggler, *jitter*100)
	}
	fmt.Printf("iterations   %d over %d epochs\n", res.Iterations, res.EpochsRun)
	fmt.Printf("final acc    %.3f (best %.3f)\n", res.FinalAcc, res.BestAcc)
	fmt.Printf("sim time     %s\n", metrics.FormatSeconds(res.SimSeconds))
	if res.ReachedTarget {
		fmt.Printf("TTA(%.0f%%)     %s\n", *target*100, metrics.FormatSeconds(res.TTASeconds))
	} else {
		fmt.Printf("TTA(%.0f%%)     not reached (end of run: %s)\n", *target*100, metrics.FormatSeconds(res.TTASeconds))
	}
	fmt.Printf("comm time    %s across %d all-reduce / %d all-gather / %d PS ops\n",
		metrics.FormatSeconds(res.Stats.SimSeconds),
		res.Stats.AllReduceOps, res.Stats.AllGatherOps, res.Stats.PSOps)
	fmt.Printf("wire bytes   %s logical payload (ring-equivalent volume)\n", metrics.FormatBytes(res.Stats.PayloadBytes))
	if res.MaskSparsity > 0 {
		fmt.Printf("mask         %.1f%% pruned, %.1f%% of syncs on compact path\n",
			res.MaskSparsity*100, res.StableFraction*100)
	}
	if len(res.AdaptiveDecisions) > 0 {
		fmt.Printf("decisions    %s (%d switches)\n",
			adaptive.SummarizeCounts(res.AdaptiveDecisions), res.AdaptiveSwitches)
	}
	fmt.Printf("wall time    %.1fs\n", res.WallSeconds)
	return 0
}
