package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateRejectsCorruptTraces pins the -validate-trace error paths: a
// corrupt, truncated, or structurally broken trace file produces a
// diagnostic error — never a panic, never a silent pass.
func TestValidateRejectsCorruptTraces(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want string
	}{
		{"not json", "perfetto says hi", "not a JSON trace document"},
		{"truncated", `{"traceEvents":[{"name":"compute","ph":"X","ts":0,`, "not a JSON trace document"},
		{"empty document", `{}`, "no traceEvents"},
		{"empty events", `{"traceEvents":[]}`, "no traceEvents"},
		{"nameless event", `{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}`, "has no name"},
		{"negative duration", `{"traceEvents":[{"name":"c","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}]}`, "negative duration"},
		{"negative track", `{"traceEvents":[{"name":"c","ph":"X","ts":0,"dur":1,"pid":-1,"tid":0}]}`, "negative pid/tid"},
		{"unknown phase", `{"traceEvents":[{"name":"c","ph":"Q","ts":0,"pid":0,"tid":0}]}`, "unknown phase"},
		{"time reversal", `{"traceEvents":[` +
			`{"name":"a","ph":"X","ts":5,"dur":1,"pid":0,"tid":0},` +
			`{"name":"b","ph":"X","ts":2,"dur":1,"pid":0,"tid":0}]}`, "goes backwards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate([]byte(tc.raw))
			if err == nil {
				t.Fatalf("corrupt trace validated: %s", tc.raw)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostic %q missing %q", err, tc.want)
			}
		})
	}
}

// TestValidateFileErrors covers the file-level wrapper: a missing path and
// an on-disk truncated document both surface as errors with context.
func TestValidateFileErrors(t *testing.T) {
	if err := ValidateFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file validated")
	}
	path := filepath.Join(t.TempDir(), "truncated.json")
	tr := NewTracer()
	run := tr.StartRun("run", "fp", 2, []int{4})
	run.Compute(0, 0, 0, 1e-3, 2e-3)
	raw, err := tr.Build().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	err = ValidateFile(path)
	if err == nil {
		t.Fatal("truncated trace file validated")
	}
	if !strings.Contains(err.Error(), "not a JSON trace document") {
		t.Fatalf("diagnostic %q", err)
	}
}

// traceFrom records the run a script describes, keeping the exporter's
// contract and nothing more: ranks and buckets in range, no span ending
// before it starts, each stream's spans in time order. Each byte pair is one
// call — the first byte picks the call and its rank, the second its bucket
// and how far it moves that stream's clock. A repeated run key yields the
// nil RunTrace a deduplicated run gets. Bytes past the first 1 KiB are not
// read, so that the fuzzer's largest inputs stay quick.
func traceFrom(script []byte) *Tracer {
	script = script[:min(len(script), 1024)]
	tr := NewTracer()
	var run *RunTrace
	world, buckets := 1, 0
	clock := make(map[[2]int]float64) // (rank, tid) → simulated seconds
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		rank, bucket, step := int(op/6)%world, 0, float64(arg)*1e-4
		if buckets > 0 {
			bucket = int(arg) % buckets
		}
		stream := [2]int{rank, tidForBucket(bucket)}
		iter := i / 2
		switch op % 6 {
		case 0:
			world, buckets = 1+int(arg)%4, int(arg/4)%4
			elems := make([]int, buckets)
			for b := range elems {
				elems[b] = 64 << b
			}
			run = tr.StartRun(fmt.Sprintf("run %q", script[i:i+2]), fmt.Sprint(arg%8), world, elems)
			clear(clock)
		case 1:
			c := [2]int{rank, 0}
			run.Compute(rank, iter, clock[c], step, step/2)
			clock[c] += step + step/2
		case 2:
			if buckets > 0 {
				run.BarrierWait(rank, bucket, iter, clock[stream], clock[stream]+step)
				clock[stream] += step
			}
		case 3:
			if buckets > 0 {
				name := []string{"all-reduce", "all-gather", "reduce-scatter"}[arg%3]
				run.Collective(rank, bucket, iter, name, clock[stream], clock[stream]+step,
					map[string]any{"elems": int(arg), "wire": "fp32"})
				clock[stream] += step
			}
		case 4:
			if buckets > 0 {
				format := []string{"dense-fp32", "mask-compact", "ternary"}[arg%3]
				run.Decision(rank, bucket, iter, clock[stream], format, map[string]any{"quote": step})
			}
		case 5:
			tr.AddMark(string(script[i:i+2]), map[string]any{"arg": int(arg)})
		}
	}
	return tr
}

// FuzzValidate gives Validate two documents per input: the raw bytes, which
// it may reject but must not panic on, and the trace the tracer exports for
// the run those bytes script (traceFrom), which it must accept. The seed
// corpus (testdata/fuzz/FuzzValidate) holds a trace Tracer.Build exported and
// its first half, malformed documents, a script that makes every call and one
// that repeats a run key.
func FuzzValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		_ = Validate(raw) // any verdict, never a panic
		out, err := traceFrom(raw).Build().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(out); err != nil {
			t.Fatalf("an exported trace fails validation: %v\n%s", err, out)
		}
	})
}
