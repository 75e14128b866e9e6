package pactrain

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestFacadeTrain(t *testing.T) {
	cfg := DefaultConfig("MLP", "pactrain-ternary")
	cfg.World = 4
	cfg.Epochs = 3
	cfg.Data.Samples = 256
	cfg.BottleneckBps = 500 * Mbps
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || res.FinalAcc <= 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	wire := IterationWireBytes(res)
	if len(wire) != res.Iterations {
		t.Fatalf("wire bytes for %d iters, want %d", len(wire), res.Iterations)
	}
	// Compression must be visible: last-iteration bytes well below first.
	if wire[len(wire)-1] >= wire[0]/2 {
		t.Fatalf("no compression visible: first %v last %v", wire[0], wire[len(wire)-1])
	}
}

func TestFacadeSchemesAllRunnable(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			cfg := DefaultConfig("MLP", scheme)
			cfg.World = 2
			cfg.Epochs = 1
			cfg.Data.Samples = 64
			cfg.TestSamples = 32
			if _, err := Train(cfg); err != nil {
				t.Fatalf("%s: %v", scheme, err)
			}
		})
	}
}

// TestFacadeCompressorRegistry walks the scheme catalog: NewCompressor
// resolves exactly the rows that state a codec, and errors on the schemes
// whose hook encodes for itself and on an unknown name.
func TestFacadeCompressorRegistry(t *testing.T) {
	ownHook := map[string]bool{"omnireduce": true, "pactrain": true, "pactrain-ternary": true, "adaptive": true}
	for _, info := range SchemeCatalog() {
		c, err := NewCompressor(info.Name, 1)
		if ownHook[info.Name] {
			if err == nil {
				t.Errorf("%s: NewCompressor returned %T, want an error", info.Name, c)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", info.Name, err)
		} else if c.Wire().Name == "" {
			t.Errorf("%s: wire format has no name", info.Name)
		}
	}
	if c, err := NewCompressor("fp16", 1); err != nil || c.Wire().Name != "fp16" {
		t.Fatalf("fp16: %v, %v", c, err)
	}
	if _, err := NewCompressor("bogus", 1); err == nil {
		t.Fatal("bogus: expected error")
	}
}

func TestFacadeTopologies(t *testing.T) {
	fig4 := Fig4Topology(100 * Mbps)
	if len(fig4.Hosts()) != 8 {
		t.Fatal("Fig4Topology should expose 8 hosts")
	}
	flat := FlatTopology(4, Gbps)
	if len(flat.Hosts()) != 4 {
		t.Fatal("FlatTopology host count")
	}
}

func TestFacadeProfilesAndWorkloads(t *testing.T) {
	if len(Profiles()) != 4 {
		t.Fatal("expected 4 paper profiles")
	}
	if len(PaperWorkloads()) != 4 {
		t.Fatal("expected 4 paper workloads")
	}
	cm := A40ComputeModel(1e9)
	if cm.IterSeconds(32) <= 0 {
		t.Fatal("compute model broken")
	}
}

func TestFacadeExperimentDispatch(t *testing.T) {
	if _, err := Experiment("not-an-experiment", Options{}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	for _, id := range ExperimentIDs() {
		if id == "" {
			t.Fatal("empty experiment id")
		}
	}
	// Run the cheapest experiment end-to-end through the facade.
	report, err := Experiment("ablation-mt", Options{Quick: true, World: 2, Samples: 128, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.Render(), "stability window") {
		t.Fatal("report malformed")
	}
}

func TestFacadeEngineSharing(t *testing.T) {
	opt := Options{Quick: true, World: 2, Samples: 128, Seed: 4}
	opt.Engine = NewExperimentEngine(opt)
	// ablation-tern's pactrain-ternary job is a subset of table1's grid, so
	// a shared engine must satisfy it without new training.
	if _, err := Experiment("ablation-tern", opt); err != nil {
		t.Fatal(err)
	}
	trained := opt.Engine.Stats().Trained
	if _, err := Experiment("ablation-tern", opt); err != nil {
		t.Fatal(err)
	}
	s := opt.Engine.Stats()
	if s.Trained != trained {
		t.Fatalf("re-running an experiment trained again: %+v", s)
	}
	if s.Deduped == 0 {
		t.Fatal("no dedup recorded across experiments")
	}
}

func TestFacadeExperimentJSON(t *testing.T) {
	opt := Options{Quick: true, World: 2, Samples: 128, Seed: 4}
	rep, err := Experiment("ablation-mt", opt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ExperimentJSON("ablation-mt", opt, rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		Seed       uint64 `json:"seed"`
		Report     struct {
			Rows []struct {
				Window int
			}
		} `json:"report"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("invalid JSON report: %v\n%s", err, raw)
	}
	if doc.Experiment != "ablation-mt" || doc.Seed != 4 || len(doc.Report.Rows) != 4 {
		t.Fatalf("JSON report content wrong: %+v", doc)
	}
}

func TestFacadeFingerprint(t *testing.T) {
	a := DefaultConfig("MLP", "all-reduce")
	b := DefaultConfig("MLP", "all-reduce")
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("equal configs fingerprint differently")
	}
	b.Seed++
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("seed change did not move the fingerprint")
	}
}
