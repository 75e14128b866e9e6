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
	"pactrain/internal/metrics"
	"pactrain/internal/par"
	"pactrain/internal/prof"
)

func parseBandwidth(s string) (float64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(s, "gbps"):
		var v float64
		if _, err := fmt.Sscanf(s, "%fgbps", &v); err != nil {
			return 0, err
		}
		return v * pactrain.Gbps, nil
	case strings.HasSuffix(s, "mbps"):
		var v float64
		if _, err := fmt.Sscanf(s, "%fmbps", &v); err != nil {
			return 0, err
		}
		return v * pactrain.Mbps, nil
	}
	return 0, fmt.Errorf("bandwidth %q must end in mbps or gbps", s)
}

func main() {
	model := flag.String("model", "ResNet18", "workload: VGG19|ResNet18|ResNet152|ViT-Base-16|MLP")
	scheme := flag.String("scheme", "pactrain-ternary", "aggregation scheme (see pactrain.Schemes)")
	collectiveAlgo := flag.String("collective", "", "collective algorithm: ring|tree|hierarchical (empty = ring)")
	overlap := flag.String("overlap", "", "backward-overlap model: none|backward (empty = none)")
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
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto)")
	traceSummary := flag.Bool("trace-summary", false, "print the per-span aggregate of the collected trace to stderr (requires -trace)")
	auditPath := flag.String("audit", "", "write the run's counterfactual audit ledger (controller regret + cost-model calibration) as JSON to this file")
	auditSummary := flag.Bool("audit-summary", false, "print the regret/calibration/switch tables of the audit to stderr (requires -audit)")
	auditStaleness := flag.Float64("audit-staleness", 0, "age the audit's bandwidth observations by this many seconds to probe calibration drift (requires -audit)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	kernelParallel := flag.Int("kernel-parallel", runtime.GOMAXPROCS(0),
		"cores the model-compute and compression kernels may occupy, shared by the run's ranks (results are bit-identical at any value)")
	flag.Parse()

	par.SetBudget(*kernelParallel)

	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pactrain-train: %v\n", err)
		os.Exit(2)
	}
	defer stopProfiles()

	bottleneck, err := parseBandwidth(*bw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pactrain-train: %v\n", err)
		os.Exit(1)
	}

	overlapMode, err := pactrain.ParseOverlap(*overlap)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pactrain-train: %v\n", err)
		os.Exit(2)
	}

	cfg := pactrain.DefaultConfig(*model, *scheme)
	cfg.World = *world
	cfg.Collective = *collectiveAlgo
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
		fmt.Fprintf(os.Stderr, "pactrain-train: unknown prune method %q\n", *pruneMethod)
		os.Exit(1)
	}

	if *traceSummary && *tracePath == "" {
		fmt.Fprintf(os.Stderr, "pactrain-train: -trace-summary requires -trace\n")
		os.Exit(2)
	}
	if (*auditSummary || *auditStaleness != 0) && *auditPath == "" {
		fmt.Fprintf(os.Stderr, "pactrain-train: -audit-summary and -audit-staleness require -audit\n")
		os.Exit(2)
	}

	res, err := pactrain.Train(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pactrain-train: %v\n", err)
		os.Exit(1)
	}

	if *tracePath != "" {
		tracer := pactrain.NewTracer()
		err := pactrain.TraceRun(tracer, fmt.Sprintf("%s %s", res.Model, res.Scheme), cfg, res)
		if err == nil {
			err = pactrain.WriteTrace(tracer, *tracePath)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pactrain-train: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %s\n", *tracePath)
		if *traceSummary {
			fmt.Fprint(os.Stderr, pactrain.TraceSummary(tracer))
		}
	}

	if *auditPath != "" {
		rep, err := pactrain.AuditRun(fmt.Sprintf("%s %s", res.Model, res.Scheme), cfg, res,
			pactrain.AuditOptions{StalenessSec: *auditStaleness, IncludeRounds: true})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pactrain-train: %v\n", err)
			os.Exit(1)
		}
		if rep.DecidedRounds == 0 {
			fmt.Fprintf(os.Stderr, "audit: no controller decisions to ledger (scheme %q is static)\n", res.Scheme)
		}
		if err := pactrain.WriteAuditReports(*auditPath, []*pactrain.AuditReport{rep}); err != nil {
			fmt.Fprintf(os.Stderr, "pactrain-train: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "audit: %s\n", *auditPath)
		if *auditSummary {
			fmt.Fprint(os.Stderr, rep.Render())
		}
	}

	if *csv {
		fmt.Print(res.Curve.CSV())
		return
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
}
