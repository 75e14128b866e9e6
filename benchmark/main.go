// Command benchmark is the repository's benchmark: four product workloads
// measured end to end with tracing off, and a traced pass that attributes
// each total to the layers named in README.md. BENCHMARK.json at the
// repository root is the contract (workloads, metrics, units, bounds); this
// program reads it and emits exactly the metrics it lists.
//
//	go run ./benchmark -seed 1                 every workload, end to end
//	go run ./benchmark -seed 1 -trace 1        ... plus the traced pass
//	go run ./benchmark -workload suite_warm -seed 3 -seconds 20 -trace 0
//	go run ./benchmark -compare a.json b.json  apply the bounds to two -out files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"pactrain/internal/par"
)

// specPath is relative to the working directory, which is the checkout root
// for `go run ./benchmark`.
const specPath = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// run is one execution of one workload.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	tiny     bool    // minimum sizes, for the package's own test
	tr       *tracer // nil on the end-to-end (untraced) runs

	scratchRoot string // where the run makes its private directory
	traceOut    string // where a traced run writes its spans
	scratch     string // the private directory: cache dirs; removed afterwards

	attempted, failed int
	errs              []string
	layer             map[string]float64
}

// fail counts one failed operation and keeps the first few reasons.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// set records a per-layer metric; a name set twice is a bug in a workload.
func (r *run) set(name string, v float64) {
	if _, dup := r.layer[name]; dup {
		panic("benchmark: per-layer metric set twice: " + name)
	}
	r.layer[name] = v
}

// more reports whether a workload should start repetition n of its measured
// window: until the window is used up, and on a traced run at least twice.
func (r *run) more(start time.Time, n int) bool {
	return time.Since(start).Seconds() < r.seconds || (r.tr != nil && n < 2)
}

// tracerFor alternates untraced and traced repetitions on a traced run, so
// that the two medians see the same machine state and their ratio is the
// tracing overhead. An untraced run gets nil throughout.
func (r *run) tracerFor(n int) *tracer {
	if n%2 == 0 {
		return nil
	}
	return r.tr
}

// outcome is what every workload hands back for the end-to-end metrics.
type outcome struct {
	setup []float64 // seconds per set-up repetition
	ops   []float64 // seconds per primary operation -> op_p50_s
	tail  []float64 // seconds per operation of every kind -> op.p90_s (traced)
	// work_per_s is work over busy. An open loop gives the units of work
	// finished in the window and the seconds the window took; a closed loop
	// gives the work of one operation and the median operation's seconds, so
	// that a slow stretch of the shared host moves throughput no more than it
	// moves op_p50_s (README.md, "Run-to-run spread").
	work, busy float64
	// Simulated throughput of the modelled cluster over every result the
	// workload delivered.
	simSamples, simSeconds float64
}

func (o outcome) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":           median(o.setup),
		"op_p50_s":          median(o.ops),
		"work_per_s":        o.work / o.busy,
		"sim_samples_per_s": o.simSamples / o.simSeconds,
	}
}

var workloads = map[string]func(*run) (outcome, error){
	"train_job":   trainJob,
	"suite_cold":  func(r *run) (outcome, error) { return suite(r, false) },
	"suite_warm":  func(r *run) (outcome, error) { return suite(r, true) },
	"serve_mixed": serveMixed,
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and shapes its metrics to the spec: exactly the
// end-to-end metrics untraced, exactly the per-layer metrics traced (a layer
// the workload's path does not cross reads 0).
func execute(spec *benchSpec, r *run, traced bool) (report, error) {
	fn, ok := workloads[r.workload]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", r.workload)
	}
	if err := os.MkdirAll(r.scratchRoot, 0o755); err != nil {
		return report{}, err
	}
	scratch, err := os.MkdirTemp(r.scratchRoot, r.workload+"-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(scratch)
	r.scratch = scratch
	r.layer = make(map[string]float64)
	if traced {
		r.tr = newTracer()
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	out, err := fn(r)
	if err != nil {
		return report{}, err
	}

	rep := report{Metrics: make(map[string]metricValue)}
	want, got := spec.EndToEnd, out.endToEnd()
	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // best effort; 0 on failure
		r.set("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
		r.set("runtime.peak_rss_mb", float64(ru.Maxrss)/1024)
		if err := writeTrace(r.traceOut, r.workload, r.tr.finish()); err != nil {
			return report{}, err
		}
		r.set("op.p90_s", percentile(out.tail, 0.90))
		want, got = spec.PerLayer, r.layer
	}
	known := make(map[string]bool)
	for _, m := range want {
		known[m.Name] = true
		v := got[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			r.fail("metric %s = %v", m.Name, v)
			v = 0
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var unknown []string
	for name := range got {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return report{}, fmt.Errorf("metrics not in %s: %s", specPath, strings.Join(unknown, " "))
	}
	rep.Attempted, rep.Failed, rep.Correct = r.attempted, r.failed, r.failed == 0
	return rep, nil
}

func envLine() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func printMetrics(rep report, order []metricSpec) {
	for _, m := range order {
		if v, ok := rep.Metrics[m.Name]; ok {
			fmt.Printf("  %-34s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// runAll re-executes this binary once per workload (and once more per
// workload for the traced pass), so the process-global kernel budget, the
// engine memo and the heap of one workload cannot leak into the next.
func runAll(spec *benchSpec, seed uint64, seconds float64, traced bool, runs int, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type runRecord struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Trace    int    `json:"trace"`
		report
	}
	var records []runRecord
	failed := false
	for rep := 0; rep < runs; rep++ {
		for _, w := range spec.Workloads {
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && !traced {
					continue
				}
				cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
				cmd.Stderr = os.Stderr
				raw, err := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
				if err != nil {
					return fmt.Errorf("workload %s: %w", w.Name, err)
				}
				var r report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					return fmt.Errorf("workload %s: last line is not a result: %w", w.Name, err)
				}
				failed = failed || !r.Correct
				records = append(records, runRecord{Workload: w.Name, Seed: seed, Trace: trace, report: r})
			}
		}
	}
	if outPath != "" {
		raw, err := json.MarshalIndent(map[string]any{"env": envLine(), "runs": records}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("a workload failed its checks")
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all, each in its own process)")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "seconds each run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics")
	runs := flag.Int("runs", 1, "without -workload: repeat every workload this many times")
	outPath := flag.String("out", "", "without -workload: write every run's result to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments")
	flag.BoolVar(&updateGolden, "update-golden", false, "with -workload at seed 1: rewrite benchmark/golden.json instead of checking it")
	flag.Parse()

	// Two cores at most: the numbers must mean the same on a larger host,
	// and par read GOMAXPROCS when it was initialised.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	par.SetBudget(runtime.GOMAXPROCS(0))

	spec, err := loadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two files"))
		}
		ok, err := compareFiles(spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload == "":
		fmt.Println(envLine())
		if err := runAll(spec, *seed, *seconds, *trace == 1, *runs, *outPath); err != nil {
			fatal(err)
		}
	default:
		// Both paths are inside the checkout, like everything the run writes.
		r := &run{workload: *workload, seed: *seed, seconds: *seconds,
			scratchRoot: filepath.Join(".bench_build", "scratch"),
			traceOut:    filepath.Join("benchmark", "out", "trace.json")}
		start := time.Now()
		rep, err := execute(spec, r, *trace == 1)
		if err != nil {
			fatal(err)
		}
		fmt.Println(envLine())
		fmt.Printf("workload %s seed %d trace %d: ops %d failed %d (%.1fs)\n",
			*workload, *seed, *trace, rep.Attempted, rep.Failed, time.Since(start).Seconds())
		sort.Strings(r.errs)
		for _, e := range r.errs {
			fmt.Println("  FAILED:", e)
		}
		if *trace == 1 {
			printMetrics(rep, spec.PerLayer)
		} else {
			printMetrics(rep, spec.EndToEnd)
		}
		last, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(last))
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
