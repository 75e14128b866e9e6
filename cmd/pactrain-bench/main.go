// Command pactrain-bench regenerates the tables and figures of the
// PacTrain paper's evaluation section.
//
// Usage:
//
//	pactrain-bench -exp fig3              # Fig. 3 TTA grid (all bandwidths)
//	pactrain-bench -exp fig5              # Fig. 5 accuracy-vs-time curves
//	pactrain-bench -exp fig6              # Fig. 6 pruning-ratio sweep
//	pactrain-bench -exp table1            # Table 1 property matrix
//	pactrain-bench -exp ablation-mt       # Mask Tracker window ablation
//	pactrain-bench -exp all -quick        # everything, fast settings
//	pactrain-bench -exp all -parallel 4   # overlap independent trainings
//	pactrain-bench -exp all -cache .pactrain-cache   # reuse recorded runs
//	pactrain-bench -exp fig3 -json        # machine-readable report
//	pactrain-bench -exp collectives       # ring/tree/hierarchical grid
//	pactrain-bench -exp adaptive          # online controller vs static formats
//	pactrain-bench -exp stragglers        # heterogeneous-compute straggler grid
//	pactrain-bench -exp fig3 -collective hierarchical   # re-price every job
//	pactrain-bench -exp fig3 -overlap backward   # hide comm under backward
//	pactrain-bench -list-schemes          # aggregation-scheme catalog
//	pactrain-bench -list-collectives      # collective-algorithm catalog
//	pactrain-bench -exp all -cpuprofile cpu.pprof   # profile a run
//	pactrain-bench -exp stragglers -quick -trace trace.json -trace-summary
//	                                      # per-rank Perfetto timeline
//	pactrain-bench -exp adaptive -quick -audit audit.json -audit-summary
//	                                      # counterfactual regret ledger
//
// Full-fidelity runs train the four lite-twin models for 12 epochs each and
// take minutes of wall time; -quick substitutes the MLP twin and finishes
// in seconds while exercising identical code paths.
//
// All experiments share one run engine: identical (model, scheme, seed)
// trainings are deduplicated across experiments within the invocation, and
// with -cache also across invocations. Reports are byte-identical at any
// -parallel setting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"pactrain"
	"pactrain/internal/cli"
)

func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiment id: table1|fig3|fig5|fig6|ablation-mt|ablation-tern|ablation-topo|ablation-varbw|collectives|adaptive|stragglers|largescale|all")
	quick := flag.Bool("quick", false, "fast settings (MLP twin, smaller sweeps)")
	world := flag.Int("world", 8, "number of distributed workers")
	samples := flag.Int("samples", 0, "synthetic training samples (0 = preset default)")
	seed := flag.Uint64("seed", 1, "experiment seed")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	parallel := flag.Int("parallel", 1, "concurrent training jobs")
	cacheDir := flag.String("cache", "", "directory for the on-disk run cache (empty = disabled)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON reports instead of text")
	listSchemes := flag.Bool("list-schemes", false, "print the aggregation-scheme catalog and exit")
	listCollectives := flag.Bool("list-collectives", false, "print the collective-algorithm catalog and exit")
	validateTrace := flag.Bool("validate-trace", false, "structurally validate the written trace file; exit non-zero on failure (requires -trace)")
	common := cli.Register(flag.CommandLine)
	flag.Parse()

	if _, err := common.Check(); err != nil {
		return cli.Usage(err)
	}
	if *validateTrace && *common.TracePath == "" {
		return cli.Usage(errors.New("-validate-trace requires -trace"))
	}
	stopProfiles, err := common.StartProfiles()
	if err != nil {
		return cli.Usage(err)
	}
	defer stopProfiles()

	if *listSchemes {
		for _, s := range pactrain.SchemeCatalog() {
			alias := ""
			if len(s.Aliases) > 0 {
				alias = fmt.Sprintf(" (aliases: %s)", strings.Join(s.Aliases, ", "))
			}
			fmt.Printf("%-18s %s%s\n", s.Name, s.Description, alias)
		}
		return 0
	}
	if *listCollectives {
		for _, a := range pactrain.CollectiveCatalog() {
			fmt.Printf("%-18s %s\n", a.Name, a.Description)
		}
		return 0
	}

	opt := pactrain.Options{
		Quick:       *quick,
		World:       *world,
		Samples:     *samples,
		Seed:        *seed,
		Collective:  *common.Collective,
		Overlap:     *common.Overlap,
		Parallelism: *parallel,
		CacheDir:    *cacheDir,
	}
	if !*quiet {
		opt.Log = os.Stderr
	}
	var tracer *pactrain.Tracer
	if *common.TracePath != "" {
		tracer = pactrain.NewTracer()
		opt.Tracer = tracer
	}
	var auditor *pactrain.Auditor
	if *common.AuditPath != "" {
		auditor = pactrain.NewAuditor()
		opt.Auditor = auditor
		opt.AuditStaleness = *common.AuditStaleness
	}
	// One engine for the whole invocation: experiments share trained runs.
	eng := pactrain.NewExperimentEngine(opt)
	opt.Engine = eng

	ids := []string{*exp}
	if *exp == "all" {
		ids = pactrain.ExperimentIDs()
	} else if _, ok := pactrain.LookupExperiment(*exp); !ok {
		return cli.Usage(fmt.Errorf("unknown experiment %q; valid ids: %s, all",
			*exp, strings.Join(pactrain.ExperimentIDs(), ", ")))
	}
	for _, id := range ids {
		report, err := pactrain.Experiment(id, opt)
		if err != nil {
			return cli.Fail(err)
		}
		if *asJSON {
			raw, err := pactrain.ExperimentJSON(id, opt, report)
			if err != nil {
				return cli.Fail(err)
			}
			fmt.Printf("%s\n", raw)
		} else {
			fmt.Printf("==== %s ====\n\n%s\n", id, report.Render())
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "engine: %s\n", eng.Stats().Summary())
	}
	if tracer != nil {
		if err := pactrain.WriteTrace(tracer, *common.TracePath); err != nil {
			return cli.Fail(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "trace: %d runs -> %s\n", tracer.Runs(), *common.TracePath)
		}
		if *common.TraceSummary {
			fmt.Fprint(os.Stderr, pactrain.TraceSummary(tracer))
		}
		if *validateTrace {
			if err := pactrain.ValidateTraceFile(*common.TracePath); err != nil {
				return cli.Fail(fmt.Errorf("trace validation: %w", err))
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "trace: %s validates\n", *common.TracePath)
			}
		}
	}
	if auditor != nil {
		reports := auditor.Reports()
		if err := pactrain.WriteAuditReports(*common.AuditPath, reports); err != nil {
			return cli.Fail(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "audit: %d ledgers -> %s\n", len(reports), *common.AuditPath)
		}
		if *common.AuditSummary {
			fmt.Fprint(os.Stderr, pactrain.AuditSummary(reports))
		}
	}
	return 0
}
