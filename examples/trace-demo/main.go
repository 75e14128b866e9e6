// Trace demo: every simulated run can explain itself span by span. A
// four-rank cluster with one 2× straggler trains PacTrain-ternary under
// backward overlap behind a 100 Mbps bottleneck; the run's recorded comm
// log is then replayed into a tracer, which derives each rank's compute
// spans, the barrier waits the fast ranks spend idling on the straggler,
// every bucket's collective, and the adaptive controller's priced format
// decisions. The result is written as Chrome trace-event JSON — drag
// trace-demo.json onto https://ui.perfetto.dev (or chrome://tracing) to
// scrub through the cluster's timeline — and summarized as a table here.
//
//	go run ./examples/trace-demo
package main

import (
	"fmt"
	"log"

	"pactrain"
	"pactrain/internal/metrics"
)

func main() {
	cfg := pactrain.DefaultConfig("MLP", "adaptive")
	cfg.World = 4
	cfg.Lite.Width = 8
	cfg.Data.Samples = 320
	cfg.Epochs = 4
	cfg.BatchSize = 8
	cfg.Seed = 3
	cfg.BottleneckBps = 100 * pactrain.Mbps
	cfg.Overlap = pactrain.OverlapBackward
	// An edge-class accelerator plus one 2× straggler: the regime where the
	// barrier-wait spans are long enough to see without zooming.
	cfg.Compute.DeviceFLOPS = 0.23e12
	cfg.RankCompute.Multipliers = pactrain.OneSlowRank(cfg.World, 2)

	res, err := pactrain.Train(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %s/%s: %d iterations, %s simulated, final acc %.3f\n",
		res.Model, res.Scheme, res.Iterations, metrics.FormatSeconds(res.SimSeconds), res.FinalAcc)

	// Tracing is a pure replay of the recorded comm log — it happens after
	// the run and cannot perturb it.
	tracer := pactrain.NewTracer()
	if err := pactrain.TraceRun(tracer, "trace-demo MLP adaptive", cfg, res); err != nil {
		log.Fatal(err)
	}

	const out = "trace-demo.json"
	if err := pactrain.WriteTrace(tracer, out); err != nil {
		log.Fatal(err)
	}
	if err := pactrain.ValidateTraceFile(out); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Print(pactrain.TraceSummary(tracer))
	fmt.Println()
	fmt.Printf("wrote %s — open it at https://ui.perfetto.dev\n", out)
	fmt.Println("rows: one process per run, one track per rank (compute) and per bucket (collectives);")
	fmt.Println("instant markers carry the adaptive controller's per-format price quotes.")
}
