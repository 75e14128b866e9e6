package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecIsWithinTheContract(t *testing.T) {
	spec := testSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed characters", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// TestWorkloadsEmitTheSpec runs every workload at its minimum size, untraced
// and traced, and checks that each emits exactly the metrics BENCHMARK.json
// names, that no value is NaN or negative, and that every per-layer metric is
// measured by at least one workload rather than only zero-filled.
func TestWorkloadsEmitTheSpec(t *testing.T) {
	spec := testSpec(t)
	measured := make(map[string]bool)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			r := &run{workload: w.Name, seed: 3, seconds: 0.2, tiny: true,
				scratchRoot: t.TempDir(), traceOut: filepath.Join(t.TempDir(), "trace.json")}
			rep, err := execute(spec, r, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d failed %d: %v", w.Name, traced, rep.Attempted, rep.Failed, r.errs)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s is missing", w.Name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || v.Value < 0:
					t.Errorf("%s: %s = %v", w.Name, m.Name, v.Value)
				case !traced && v.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
			for name := range r.layer {
				measured[name] = true
			}
			if traced {
				var doc struct{ Spans []span }
				raw, err := os.ReadFile(r.traceOut)
				if err == nil {
					err = json.Unmarshal(raw, &doc)
				}
				if err != nil || len(doc.Spans) == 0 {
					t.Errorf("%s: trace has %d spans: %v", w.Name, len(doc.Spans), err)
				}
			}
		}
	}
	var idle []string
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			idle = append(idle, m.Name)
		}
	}
	sort.Strings(idle)
	if len(idle) > 0 {
		t.Errorf("per-layer metrics no workload measures: %v", idle)
	}
}

func TestDigestCheckFiresOnACorruptedByte(t *testing.T) {
	raw := []byte(`{"experiment":"fig3","seed":1,"report":{"cells":[1,2,3]}}`)
	reference := map[string]string{"fig3": digest(raw), "table1": digest([]byte("x"))}
	same := map[string]string{"fig3": digest(raw), "table1": digest([]byte("x"))}
	if got := differing(reference, same); len(got) != 0 {
		t.Fatalf("identical bytes reported as differing: %v", got)
	}
	raw[17] ^= 1
	same["fig3"] = digest(raw)
	if got := differing(reference, same); len(got) != 1 || got[0] != "fig3" {
		t.Fatalf("one flipped bit reported as %v, want [fig3]", got)
	}

	// The committed digests fire the same way: seed 1 at full size with
	// output that is not the committed one is a failed operation.
	r := &run{seed: goldenSeed}
	checkGolden(r, "suite", same)
	if r.failed != 1 {
		t.Fatalf("golden check counted %d failures on corrupted digests, want 1", r.failed)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 8, 10, 4, 6}
	got, ok := quartileSpread(xs)
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread %v ok %v, want %v", got, ok, want)
	}
	if _, ok := quartileSpread([]float64{4}); ok {
		t.Fatal("a single sample has no spread")
	}
}

func TestCompareAppliesBoundsAndDirections(t *testing.T) {
	spec := testSpec(t)
	write := func(name string, scale map[string]float64, failed int) string {
		set := map[string]any{"env": name}
		var runs []map[string]any
		for _, w := range spec.Workloads {
			for i := 0; i < 4; i++ {
				metrics := make(map[string]metricValue)
				for _, m := range spec.EndToEnd {
					k := 1.0
					if s, ok := scale[m.Name]; ok {
						k = s
					}
					metrics[m.Name] = metricValue{Value: 10 * k * (1 + 0.001*float64(i)), Unit: m.Unit}
				}
				runs = append(runs, map[string]any{"workload": w.Name, "trace": 0, "correct": failed == 0,
					"attempted": 10, "failed": failed, "metrics": metrics})
			}
		}
		set["runs"] = runs
		raw, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base", nil, 0)
	for _, tc := range []struct {
		name   string
		scale  map[string]float64
		failed int
		ok     bool
	}{
		{"same", nil, 0, true},
		{"slower-within-bound", map[string]float64{"op_p50_s": 1.05}, 0, true},
		{"slower-beyond-bound", map[string]float64{"op_p50_s": 1.30}, 0, false},
		{"higher-is-better-drops", map[string]float64{"work_per_s": 0.7}, 0, false},
		{"higher-is-better-rises", map[string]float64{"work_per_s": 1.5}, 0, true},
		{"more-failures", nil, 1, false},
	} {
		ok, err := compareFiles(spec, base, write(tc.name, tc.scale, tc.failed))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare returned %v, want %v", tc.name, ok, tc.ok)
		}
	}
}
