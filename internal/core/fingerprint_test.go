package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
)

func fpConfig() Config {
	cfg := DefaultConfig("MLP", "pactrain-ternary")
	cfg.World = 2
	cfg.Epochs = 1
	cfg.Data.Samples = 64
	cfg.TestSamples = 32
	return cfg
}

func TestFingerprintStable(t *testing.T) {
	t.Parallel()
	a, b := fpConfig(), fpConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal configs fingerprint differently")
	}
	// Fingerprinting is a pure function: repeated calls agree and the
	// config is not mutated (validate runs on a copy).
	if a.Topology != nil {
		t.Fatal("Fingerprint materialized the caller's topology")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint unstable across calls")
	}
}

// TestFingerprintNormalizesDefaults checks that a zero field and its
// explicit default collapse to one key, so equivalent configs built through
// different paths deduplicate.
func TestFingerprintNormalizesDefaults(t *testing.T) {
	t.Parallel()
	implicit := fpConfig() // Topology nil → Fig. 4 at BottleneckBps
	explicit := fpConfig()
	explicit.Topology = netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: explicit.BottleneckBps})
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Fatal("implicit and explicit default topology fingerprint differently")
	}

	// Pruning knobs are dead fields on non-PacTrain schemes and must not
	// split the key (Fig. 6's ratio-0 reference deduplicates against the
	// plain all-reduce baseline)...
	ar1, ar2 := fpConfig(), fpConfig()
	ar1.Scheme, ar2.Scheme = "all-reduce", "all-reduce"
	ar2.PruneRatio = 0
	ar2.StableWindow = 5
	if ar1.Fingerprint() != ar2.Fingerprint() {
		t.Fatal("pruning knobs split the key for a non-pruning scheme")
	}
	// ...but remain significant for PacTrain schemes.
	pt1, pt2 := fpConfig(), fpConfig()
	pt2.PruneRatio = 0.9
	if pt1.Fingerprint() == pt2.Fingerprint() {
		t.Fatal("prune ratio ignored for a PacTrain scheme")
	}

	// The ring default is canonicalized away: "", "ring", and the pre-
	// refactor digests (which had no collective line at all) share one key,
	// so warm caches survive the collective-algorithm layer.
	ring1, ring2 := fpConfig(), fpConfig()
	ring2.Collective = "ring"
	if ring1.Fingerprint() != ring2.Fingerprint() {
		t.Fatal("\"\" and \"ring\" collective fingerprint differently")
	}

	// The adaptive knobs are dead fields on every other scheme — and their
	// keys are not even emitted there, so pre-adaptive fingerprints (and
	// warm disk caches) are untouched.
	ad1, ad2 := fpConfig(), fpConfig()
	ad2.AdaptMargin = 0.2
	ad2.AdaptDwell = 5
	ad2.AdaptCandidates = []string{"index-list"}
	if ad1.Fingerprint() != ad2.Fingerprint() {
		t.Fatal("adaptive knobs split the key for a non-adaptive scheme")
	}
	// Heterogeneity knobs move the digest only when enabled: an all-unit
	// multiplier slice and zero jitter are the homogeneous cluster spelled
	// explicitly, and the keys are not even emitted there, so every
	// pre-timeline fingerprint (and warm disk cache) is untouched.
	rc1, rc2 := fpConfig(), fpConfig()
	rc2.RankCompute.Multipliers = []float64{1, 1}
	rc2.RankCompute.JitterSeed = 42 // dead without jitter
	if rc1.Fingerprint() != rc2.Fingerprint() {
		t.Fatal("explicit homogeneous RankCompute split the key")
	}
	trim1, trim2 := fpConfig(), fpConfig()
	trim1.RankCompute.Multipliers = []float64{2}
	trim2.RankCompute.Multipliers = []float64{2, 1}
	if trim1.Fingerprint() != trim2.Fingerprint() {
		t.Fatal("trailing unit multiplier split the key")
	}
	if trim1.Fingerprint() == rc1.Fingerprint() {
		t.Fatal("an enabled straggler multiplier must move the digest")
	}

	// For the adaptive scheme, a nil candidate list and the explicit full
	// set normalize to one key...
	full1, full2 := fpConfig(), fpConfig()
	full1.Scheme, full2.Scheme = SchemeAdaptive, SchemeAdaptive
	full2.AdaptCandidates = []string{"dense-fp32", "mask-compact", "mask-compact-ternary", "index-list"}
	if full1.Fingerprint() != full2.Fingerprint() {
		t.Fatal("nil and explicit-full candidate sets fingerprint differently")
	}
	// ...and candidate order canonicalizes.
	ord1, ord2 := fpConfig(), fpConfig()
	ord1.Scheme, ord2.Scheme = SchemeAdaptive, SchemeAdaptive
	ord1.AdaptCandidates = []string{"index-list", "dense-fp32"}
	ord2.AdaptCandidates = []string{"dense-fp32", "index-list"}
	if ord1.Fingerprint() != ord2.Fingerprint() {
		t.Fatal("candidate order split the key")
	}
}

// TestFingerprintDistinguishesResultChangingFields flips every config field
// that changes training output and asserts the key moves.
func TestFingerprintDistinguishesResultChangingFields(t *testing.T) {
	t.Parallel()
	baseCfg := fpConfig()
	base := baseCfg.Fingerprint()
	mutations := map[string]func(*Config){
		"model":        func(c *Config) { c.ModelName = "VGG19" },
		"width":        func(c *Config) { c.Lite.Width = 12 },
		"data_seed":    func(c *Config) { c.Data.Seed++ },
		"samples":      func(c *Config) { c.Data.Samples += 64 },
		"test_samples": func(c *Config) { c.TestSamples += 32 },
		"world":        func(c *Config) { c.World = 4 },
		"scheme":       func(c *Config) { c.Scheme = "pactrain" },
		"prune_ratio":  func(c *Config) { c.PruneRatio = 0.7 },
		"pretrain":     func(c *Config) { c.PretrainEpochs++ },
		"window":       func(c *Config) { c.StableWindow++ },
		"epochs":       func(c *Config) { c.Epochs++ },
		"batch":        func(c *Config) { c.BatchSize *= 2 },
		"lr":           func(c *Config) { c.LR *= 2 },
		"momentum":     func(c *Config) { c.Momentum = 0.8 },
		"weight_decay": func(c *Config) { c.WeightDecay *= 2 },
		"target":       func(c *Config) { c.TargetAcc = 0.5 },
		"eval_every":   func(c *Config) { c.EvalEvery = 3 },
		"buckets":      func(c *Config) { c.BucketBytes = 1 << 12 },
		"profile":      func(c *Config) { c.Profile.Params *= 2 },
		"compute":      func(c *Config) { c.Compute.DeviceFLOPS *= 2 },
		"seed":         func(c *Config) { c.Seed++ },
		"bottleneck":   func(c *Config) { c.BottleneckBps = 100 * netsim.Mbps },
		"trace": func(c *Config) {
			c.Traces = []*netsim.BandwidthTrace{{LinkIndex: 0, Segments: []netsim.TraceSegment{{UntilSec: 1, Scale: 0.5}}}}
		},
		"topology":   func(c *Config) { c.Topology = netsim.FlatTopology(8, netsim.Gbps, 1e-4) },
		"collective": func(c *Config) { c.Collective = "hierarchical" },
		"overlap":    func(c *Config) { c.Overlap = ddp.OverlapBackward },
		"rank_mult":  func(c *Config) { c.RankCompute.Multipliers = netsim.OneSlowRank(c.World, 2) },
		"rank_jitter": func(c *Config) {
			c.RankCompute.JitterFrac = 0.1
		},
		"rank_jitter_seed": func(c *Config) {
			c.RankCompute.JitterFrac = 0.1
			c.RankCompute.JitterSeed = 5
		},
	}
	// The adaptive knobs change training output for the adaptive scheme.
	adaptiveMutations := map[string]func(*Config){
		"adapt_margin":     func(c *Config) { c.AdaptMargin = 0.3 },
		"adapt_dwell":      func(c *Config) { c.AdaptDwell = 7 },
		"adapt_candidates": func(c *Config) { c.AdaptCandidates = []string{"mask-compact-ternary"} },
	}
	adBase := fpConfig()
	adBase.Scheme = SchemeAdaptive
	adBaseFP := adBase.Fingerprint()
	for name, mutate := range adaptiveMutations {
		cfg := fpConfig()
		cfg.Scheme = SchemeAdaptive
		mutate(&cfg)
		if cfg.Fingerprint() == adBaseFP {
			t.Errorf("mutation %q did not change the adaptive fingerprint", name)
		}
	}
	for name, mutate := range mutations {
		cfg := fpConfig()
		mutate(&cfg)
		if cfg.Fingerprint() == base {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}
}

// fmtFabric is the spelling appendFabric must reproduce byte for byte: the
// fmt verbs the fingerprint serialized its fabric with before the lines
// were appended directly.
func fmtFabric(topo *netsim.Topology, traces []*netsim.BandwidthTrace) string {
	var b strings.Builder
	if topo != nil {
		fmt.Fprintf(&b, "topo_nodes=%d\n", len(topo.Nodes))
		for _, n := range topo.Nodes {
			fmt.Fprintf(&b, "node=%d,%d\n", n.ID, n.Kind)
		}
		for i, l := range topo.Links {
			fmt.Fprintf(&b, "link=%d,%d,%d,%v,%v\n", i, l.A, l.B, l.BandwidthBps, l.LatencySec)
		}
	}
	for _, tr := range traces {
		fmt.Fprintf(&b, "trace=%d\n", tr.LinkIndex)
		for _, s := range tr.Segments {
			fmt.Fprintf(&b, "seg=%v,%v\n", s.UntilSec, s.Scale)
		}
	}
	return b.String()
}

// TestFingerprintFabricMatchesFmt pins the pre-hash bytes of the topology
// and trace lines to the fmt spelling on every float class a link or a
// segment can hold, and one traced config's digest to the value recorded
// before the serializer changed — a moved byte would orphan every disk
// cache entry keyed on a custom fabric.
func TestFingerprintFabricMatchesFmt(t *testing.T) {
	t.Parallel()
	edge := []float64{0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308, math.Inf(1), math.Inf(-1),
		math.NaN(), 1, -1, 1e20, 1e21, 123456789, 1e-5, 0.1, 100e-6, 1e9, 12345.678, math.MaxFloat64, 1 << 53}
	racked := netsim.RackedTopology(netsim.RackedOptions{Racks: 3, HostsPerRack: 2})
	weird := netsim.FlatTopology(len(edge), netsim.Gbps, 1e-4)
	var segs []netsim.TraceSegment
	for i, v := range edge {
		weird.Links[i].BandwidthBps = v
		weird.Links[i].LatencySec = edge[len(edge)-1-i]
		segs = append(segs, netsim.TraceSegment{UntilSec: v, Scale: edge[(i+7)%len(edge)]})
	}
	traces := []*netsim.BandwidthTrace{{LinkIndex: 2, Segments: segs}, {LinkIndex: -1}, {LinkIndex: 0, Segments: segs[:1]}}
	// Traces shared, cloned, then cut before the NaN and broken by one sign
	// of zero, over alternating scales with ±0 and NaN.
	var alt []netsim.TraceSegment
	for i, v := range []float64{1, 0.3, 1, 0, math.Copysign(0, -1), 1, math.NaN()} {
		alt = append(alt, netsim.TraceSegment{UntilSec: float64(i) / 3, Scale: v})
	}
	broken := slices.Clone(alt[:6])
	broken[4].Scale = 0
	repeated := []*netsim.BandwidthTrace{{LinkIndex: 0, Segments: alt}, {LinkIndex: 1, Segments: alt},
		{LinkIndex: 2, Segments: slices.Clone(alt)}, {LinkIndex: 3, Segments: alt[:6]},
		{LinkIndex: 4, Segments: broken}, {LinkIndex: 5, Segments: alt}}
	for name, c := range map[string]struct {
		topo   *netsim.Topology
		traces []*netsim.BandwidthTrace
	}{
		"none":     {nil, nil},
		"racked":   {racked, nil},
		"edge":     {weird, traces},
		"traces":   {nil, traces},
		"repeated": {racked, repeated},
	} {
		if got, want := string(appendFabric(nil, c.topo, c.traces)), fmtFabric(c.topo, c.traces); got != want {
			t.Errorf("%s: appended bytes differ from the fmt spelling:\n got %q\nwant %q", name, got, want)
		}
	}

	cfg := fpConfig()
	cfg.World = 6
	cfg.Topology = racked
	cfg.Traces = []*netsim.BandwidthTrace{{LinkIndex: 0, Segments: []netsim.TraceSegment{
		{UntilSec: 0.5, Scale: 0.25}, {UntilSec: math.Inf(1), Scale: 1}}}}
	if got, want := cfg.Fingerprint(), "a9e209765e4fc73b"; got != want {
		t.Errorf("traced racked config fingerprints %s, recorded %s", got, want)
	}
}
