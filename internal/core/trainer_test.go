package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"pactrain/internal/collective"
	"pactrain/internal/data"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
	"pactrain/internal/prune"
)

// tinyConfig returns a fast configuration for integration tests: MLP twin,
// small synthetic dataset, 4 workers on a flat gigabit switch.
func tinyConfig(scheme string) Config {
	cfg := DefaultConfig("MLP", scheme)
	cfg.World = 4
	cfg.Topology = netsim.FlatTopology(4, netsim.Gbps, 1e-5)
	cfg.Data = data.CIFAR10Like(320, 5)
	cfg.TestSamples = 100
	cfg.Epochs = 3
	cfg.BatchSize = 8
	cfg.PretrainEpochs = 1
	cfg.TargetAcc = 0.5
	cfg.BucketBytes = 1 << 14
	cfg.Profile = nn.CommProfile{Name: "MLP", Params: 1_000_000, FLOPsPerSample: 50_000_000}
	return cfg
}

func TestRunAllReduceBaseline(t *testing.T) {
	res, err := Run(tinyConfig("all-reduce"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 || res.SimSeconds <= 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if len(res.Curve.Points) != 3 {
		t.Fatalf("expected 3 eval points (per epoch), got %d", len(res.Curve.Points))
	}
	if res.FinalAcc < 0.3 {
		t.Fatalf("model failed to learn: acc %v", res.FinalAcc)
	}
	for rank, cs := range res.WeightChecksums {
		if math.Abs(cs-res.WeightChecksums[0]) > 1e-6 {
			t.Fatalf("replica %d diverged: %v vs %v", rank, cs, res.WeightChecksums[0])
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a, err := Run(tinyConfig("all-reduce"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyConfig("all-reduce"))
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAcc != b.FinalAcc || a.SimSeconds != b.SimSeconds {
		t.Fatalf("same config must reproduce: acc %v/%v time %v/%v",
			a.FinalAcc, b.FinalAcc, a.SimSeconds, b.SimSeconds)
	}
}

// TestRunAllSchemesTrainAndStayConsistent trains each scheme and checks the
// op kind its log holds: the transport its scheme row chose.
func TestRunAllSchemesTrainAndStayConsistent(t *testing.T) {
	schemes := []struct {
		scheme string
		kind   OpKind
	}{
		{"fp16", OpAllReduce}, {"terngrad", OpAllReduce}, {"qsgd", OpAllReduce},
		{"thc", OpPS}, {"ps", OpPS},
		{"topk-0.1", OpAllGather}, {"dgc-0.1", OpAllGather}, {"zen", OpAllGather},
		{"omnireduce", OpBlockSparse},
	}
	for _, tc := range schemes {
		scheme := tc.scheme
		t.Run(scheme, func(t *testing.T) {
			cfg := tinyConfig(scheme)
			cfg.Epochs = 2
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for rank, cs := range res.WeightChecksums {
				if math.Abs(cs-res.WeightChecksums[0]) > 1e-6 {
					t.Fatalf("%s: replica %d diverged", scheme, rank)
				}
			}
			if res.Stats.SimSeconds <= 0 {
				t.Fatalf("%s: no communication time accrued", scheme)
			}
			ops := 0
			for _, iter := range res.CommLog.Iters {
				for _, op := range iter {
					if op.Kind != tc.kind {
						t.Fatalf("%s: recorded op kind %d, want only %d", scheme, op.Kind, tc.kind)
					}
					ops++
				}
			}
			if ops == 0 {
				t.Fatalf("%s: no ops recorded", scheme)
			}
		})
	}
}

func TestRunPacTrain(t *testing.T) {
	cfg := tinyConfig("pactrain")
	cfg.PruneRatio = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaskSparsity < 0.3 || res.MaskSparsity > 0.6 {
		t.Fatalf("mask sparsity %v, want ≈0.5 over prunable weights", res.MaskSparsity)
	}
	if res.StableFraction <= 0 {
		t.Fatal("PacTrain never reached the compact path")
	}
	if res.FinalAcc < 0.3 {
		t.Fatalf("pruned model failed to learn: %v", res.FinalAcc)
	}
	for rank, cs := range res.WeightChecksums {
		if math.Abs(cs-res.WeightChecksums[0]) > 1e-6 {
			t.Fatalf("replica %d diverged", rank)
		}
	}
}

func TestRunPacTrainTernary(t *testing.T) {
	cfg := tinyConfig("pactrain-ternary")
	cfg.PruneRatio = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StableFraction <= 0 {
		t.Fatal("ternary PacTrain never reached the compact path")
	}
	for rank, cs := range res.WeightChecksums {
		if math.Abs(cs-res.WeightChecksums[0]) > 1e-6 {
			t.Fatalf("replica %d diverged", rank)
		}
	}
}

// TestPacTrainCheaperThanAllReduceUnderBottleneck is the paper's core
// claim in miniature: with a constrained link, PacTrain's per-iteration
// communication is cheaper, so the same number of iterations finishes
// sooner in simulated time.
func TestPacTrainCheaperThanAllReduceUnderBottleneck(t *testing.T) {
	mk := func(scheme string) Config {
		cfg := tinyConfig(scheme)
		cfg.World = 8
		cfg.Topology = netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: 100 * netsim.Mbps})
		cfg.Epochs = 3
		cfg.PretrainEpochs = 1
		return cfg
	}
	base, err := Run(mk("all-reduce"))
	if err != nil {
		t.Fatal(err)
	}
	pac, err := Run(mk("pactrain-ternary"))
	if err != nil {
		t.Fatal(err)
	}
	if pac.SimSeconds >= base.SimSeconds {
		t.Fatalf("PacTrain (%v s) should beat all-reduce (%v s) at 100 Mbps",
			pac.SimSeconds, base.SimSeconds)
	}
}

func TestCommLogRecostMatchesInSitu(t *testing.T) {
	cfg := tinyConfig("pactrain")
	cfg.Epochs = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommLog == nil || len(res.CommLog.Iters) != res.Iterations {
		t.Fatalf("comm log has %d iterations, want %d", len(res.CommLog.Iters), res.Iterations)
	}
	// Re-cost the log on an identical fresh fabric: with constant
	// bandwidths the total must equal the in-situ communication time.
	topo := netsim.FlatTopology(4, netsim.Gbps, 1e-5)
	fabric := netsim.NewFabric(topo)
	hosts := topo.Hosts()
	alg := collective.MustAlgorithm(res.Collective)
	var total float64
	for _, ops := range res.CommLog.Iters {
		total += CostIter(ops, alg, fabric, hosts, total)
	}
	if math.Abs(total-res.Stats.SimSeconds)/res.Stats.SimSeconds > 1e-6 {
		t.Fatalf("recost %v vs in-situ %v", total, res.Stats.SimSeconds)
	}
}

func TestWireBytesPerWorkerShrinkWithPacTrain(t *testing.T) {
	base, err := Run(tinyConfig("all-reduce"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig("pactrain-ternary")
	cfg.Epochs = 3
	pac, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compare last-iteration wire volume (PacTrain is on the compact path
	// by then).
	lastBase := base.CommLog.Iters[len(base.CommLog.Iters)-1]
	lastPac := pac.CommLog.Iters[len(pac.CommLog.Iters)-1]
	bb := WireBytesPerWorker(lastBase, 4)
	pb := WireBytesPerWorker(lastPac, 4)
	if pb >= bb/4 {
		t.Fatalf("pactrain-ternary last-iteration bytes %v, want < 1/4 of baseline %v", pb, bb)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := tinyConfig("all-reduce")
	cfg.World = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("world 0 must fail")
	}
	cfg = tinyConfig("nope")
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	cfg = tinyConfig("all-reduce")
	cfg.PruneRatio = 1.5
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid prune ratio must fail")
	}
}

// TestRunRefusesBeforeRanksStart pins that everything able to refuse a run
// is checked before a rank starts: a rank has no error to return, since its
// peers would wait for it at the next bucket sync forever. Each refusal
// leaves no goroutine behind, and the unknown-name messages are the ones a
// rank used to return.
func TestRunRefusesBeforeRanksStart(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name, want string
		edit       func(*Config)
	}{
		{"unknown scheme", fmt.Sprintf("core: unknown scheme %q (have %v)", "no-such-scheme", Schemes()),
			func(c *Config) { c.Scheme = "no-such-scheme" }},
		{"unknown model", `nn: unknown lite model "no-such-model"`,
			func(c *Config) { c.ModelName = "no-such-model" }},
		{"unknown prune method", "prune method",
			func(c *Config) { c.Scheme, c.PruneMethod = "pactrain", prune.Method(99) }},
		{"NaN prune ratio", "prune ratio",
			func(c *Config) { c.Scheme, c.PruneRatio = "pactrain", nan }},
		{"NaN adaptive margin", "adaptive margin",
			func(c *Config) { c.Scheme, c.AdaptMargin = SchemeAdaptive, nan }},
		{"NaN straggler", "multiplier",
			func(c *Config) { c.RankCompute.Multipliers = netsim.OneSlowRank(c.World, nan) }},
		{"NaN jitter", "jitter",
			func(c *Config) { c.RankCompute.JitterFrac = nan }},
		{"infinite straggler", "multiplier",
			func(c *Config) { c.RankCompute.Multipliers = netsim.OneSlowRank(c.World, math.Inf(1)) }},
		{"overflowing straggler", "multiplier",
			func(c *Config) { c.RankCompute.Multipliers = netsim.OneSlowRank(c.World, 1e300) }},
		{"NaN learning rate", "learning rate", func(c *Config) { c.LR = nan }},
		{"NaN momentum", "momentum", func(c *Config) { c.Momentum = nan }},
		{"NaN weight decay", "weight decay", func(c *Config) { c.WeightDecay = nan }},
		{"NaN target", "target accuracy", func(c *Config) { c.TargetAcc = nan }},
	}
	for _, tc := range cases {
		cfg := tinyConfig("all-reduce")
		tc.edit(&cfg)
		base := runtime.NumGoroutine()
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("%s: the run was not refused", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.want)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines after the refusal, %d before", tc.name, n, base)
		}
	}
}

func TestEvalEveryCadence(t *testing.T) {
	cfg := tinyConfig("all-reduce")
	cfg.EvalEvery = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Iterations / 2
	if len(res.Curve.Points) != want {
		t.Fatalf("eval points %d, want %d", len(res.Curve.Points), want)
	}
}

func TestGraSPPruneMethodRuns(t *testing.T) {
	cfg := tinyConfig("pactrain")
	cfg.PruneMethod = 2 // prune.GraSP
	cfg.Epochs = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaskSparsity <= 0 {
		t.Fatal("GraSP produced an empty mask")
	}
	for rank, cs := range res.WeightChecksums {
		if math.Abs(cs-res.WeightChecksums[0]) > 1e-6 {
			t.Fatalf("replica %d diverged under GraSP pruning", rank)
		}
	}
}

// TestEvaluateOnViewsLeavesTheDatasetUntouched pins what lets evaluate and
// GraSP's probe hand a model zero-copy views of the dataset: no layer writes
// its input, in eval or in train mode. Every twin is evaluated on views and on
// copies — same accuracy — and run one train-mode forward/backward on a view;
// the dataset's bytes must not move.
func TestEvaluateOnViewsLeavesTheDatasetUntouched(t *testing.T) {
	set := data.Generate(data.CIFAR10Like(100, 3))
	before := append([]float32(nil), set.Images.Data()...)
	for _, name := range []string{"MLP", "VGG19", "ResNet18", "ResNet152", "ViT-Base-16"} {
		model, err := nn.NewLiteByName(name, nn.DefaultLiteConfig(10, 1))
		if err != nil {
			t.Fatal(err)
		}
		correct := 0.0
		for from := 0; from < set.Len(); from += 64 {
			x, labels := set.Batch(from, 64)
			correct += float64(nn.Accuracy(model.Forward(x, false), labels) * float64(len(labels)))
		}
		if got, want := evaluate(model, set), correct/float64(set.Len()); got != want {
			t.Errorf("%s: accuracy %v on views, %v on copies", name, got, want)
		}
		x, labels := set.View(0, 16)
		_, g := nn.SoftmaxCrossEntropy(model.Forward(x, true), labels)
		model.Backward(g)
		for i, v := range set.Images.Data() {
			if math.Float32bits(v) != math.Float32bits(before[i]) {
				t.Fatalf("%s wrote its input: image float %d is %v, was %v", name, i, v, before[i])
			}
		}
	}
}

// TestMemoizedDatasetOutlivesRuns guards the dataset memo against any
// in-place writer: Run takes its dataset from the memo, and a full run of a
// BatchNorm twin and an attention twin — training, GraSP's train-mode probe on
// views, evaluation on views — leaves its bytes as they were.
func TestMemoizedDatasetOutlivesRuns(t *testing.T) {
	for _, model := range []string{"ResNet18", "ViT-Base-16"} {
		cfg := tinyTwinConfig(model)
		cfg.PruneMethod = prune.GraSP
		cfg.Data.Seed = 77
		full := cfg.Data
		full.Samples = cfg.shardSamples()*cfg.World + cfg.TestSamples
		ds := memoDataset(full)
		digest := func() [32]byte {
			h := sha256.New()
			binary.Write(h, binary.LittleEndian, ds.Images.Data())
			for _, l := range ds.Labels {
				binary.Write(h, binary.LittleEndian, int64(l))
			}
			return [32]byte(h.Sum(nil))
		}
		before := digest()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if memoDataset(full) != ds {
			t.Fatalf("%s: the memo no longer holds the run's dataset", model)
		}
		if digest() != before {
			t.Fatalf("%s: a run wrote to its memoized dataset", model)
		}
	}
}
