// Package core implements PacTrain, the paper's contribution: Algorithm 1's
// worker loop combining unstructured pruning, Gradient Sparsity Enforcement
// (Eq. 2), the Mask Tracker, adaptive mask-compact compression over
// all-reduce, and optional ternary quantization (§III-D) — plus the
// baseline communication hooks the paper evaluates against (fp32 all-reduce,
// FP16, TopK, DGC, TernGrad, QSGD, THC, parameter server, OmniReduce-style
// block-sparse and Zen-style sparse all-gather).
package core

import (
	"fmt"
	"math"

	"pactrain/internal/adaptive"
	"pactrain/internal/collective"
	"pactrain/internal/data"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
	"pactrain/internal/prune"
)

// Config fully describes one distributed training run.
type Config struct {
	// ModelName selects both the lite twin (trained for real) and the
	// communication profile (used for simulated time): "VGG19", "ResNet18",
	// "ResNet152", "ViT-Base-16", or "MLP" (tests).
	ModelName string
	// Lite geometry for the trainable twin.
	Lite nn.LiteConfig
	// Data configures the synthetic dataset. TestSamples are generated
	// separately for evaluation.
	Data        data.Config
	TestSamples int

	// World is the number of distributed workers.
	World int
	// Topology hosts the workers; defaults to the paper's Fig. 4 at
	// BottleneckBps if nil.
	Topology      *netsim.Topology
	BottleneckBps float64
	// Traces optionally scale link bandwidths over simulated time,
	// modelling the paper's variable-constrained WAN scenario.
	Traces []*netsim.BandwidthTrace

	// Scheme names the aggregation scheme: "all-reduce", "fp16",
	// "topk-0.1", "topk-0.01", "dgc-0.01", "terngrad", "qsgd", "thc", "ps",
	// "omnireduce", "zen", "pactrain", "pactrain-ternary", "adaptive".
	Scheme string

	// Collective selects the collective algorithm pricing the symmetric
	// collectives: "ring" (flat ring, the paper's setup and the default for
	// the empty string), "tree" (recursive halving/doubling), or
	// "hierarchical" (two-level, racks derived from the topology's switch
	// structure). The convergence trajectory is algorithm-independent — the
	// data plane sums identically — so only simulated time changes.
	Collective string

	// PacTrain parameters (§III).
	PruneRatio     float64
	PruneMethod    prune.Method
	PretrainEpochs int // dense epochs before pruning (the "pre-trained model")
	StableWindow   int // Mask Tracker consecutive-iteration window

	// Adaptive-controller knobs, read only by the "adaptive" scheme
	// (internal/adaptive). AdaptMargin is the hysteresis win margin
	// (fraction in [0,1); exactly 0 takes the package default, negatives
	// error), AdaptDwell the consecutive winning rounds a challenger needs
	// before a switch (0 takes the default, negatives error), and
	// AdaptCandidates restricts the candidate wire formats (nil = all of
	// adaptive.Formats()). Like the pruning knobs on non-pruning schemes,
	// they are canonicalized away from the fingerprint when another scheme
	// is selected.
	AdaptMargin     float64
	AdaptDwell      int
	AdaptCandidates []string

	// Optimization.
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64

	// TargetAcc defines TTA; EvalEvery is the evaluation cadence in
	// iterations (0 = once per epoch).
	TargetAcc float64
	EvalEvery int

	// BucketBytes caps DDP gradient buckets (0 = 25 MiB default).
	BucketBytes int
	// Profile and Compute drive the simulated clock.
	Profile nn.CommProfile
	Compute ddp.ComputeModel
	// Overlap selects how bucket communication interleaves with backward
	// compute: OverlapNone serializes them (the historical scalar clock);
	// OverlapBackward launches each bucket's collective as its gradient
	// becomes ready, the exact per-bucket timeline model (DESIGN.md §5).
	Overlap ddp.Overlap
	// RankCompute introduces per-rank compute heterogeneity — straggler
	// multipliers and deterministically seeded per-iteration jitter. The
	// zero value is the homogeneous cluster; netsim.OneSlowRank and
	// netsim.RampRanks build the Multipliers presets. Heterogeneity moves
	// only the simulated clocks: the data plane still averages identically,
	// so replicas stay in lockstep (TestStragglerClocksKeepWeightsLockstep).
	RankCompute ddp.RankCompute

	// Seed determines everything: weights, data, shuffles, quantization.
	Seed uint64

	// OnProgress, when non-nil, receives rank 0's evaluation heartbeats as
	// the run advances (progress.go). It is called from the goroutine that
	// evaluates rank 0's snapshots, not from a rank: one call at a time, in
	// evaluation order, every call before Run returns. Observation-only and
	// excluded from the fingerprint: a callback cannot change the
	// trajectory, so two configs differing only here are the same run.
	OnProgress func(Progress) `json:"-"`
}

// DefaultConfig returns a small-but-realistic configuration for the given
// paper workload and scheme, used by the experiment harness and examples.
func DefaultConfig(modelName, scheme string) Config {
	profile, err := nn.ProfileByName(modelName)
	if err != nil {
		// MLP and custom models fall back to a small synthetic profile.
		profile = nn.CommProfile{Name: modelName, Params: 1_000_000, FLOPsPerSample: 100_000_000}
	}
	return Config{
		ModelName:      modelName,
		Lite:           nn.DefaultLiteConfig(10, 1),
		Data:           data.CIFAR10Like(512, 11),
		TestSamples:    256,
		World:          8,
		BottleneckBps:  1 * netsim.Gbps,
		Scheme:         scheme,
		PruneRatio:     0.5,
		PruneMethod:    prune.GlobalMagnitude,
		PretrainEpochs: 1,
		StableWindow:   2,
		Epochs:         10,
		BatchSize:      16,
		LR:             0.05,
		Momentum:       0.9,
		WeightDecay:    5e-4,
		TargetAcc:      0.80,
		BucketBytes:    1 << 16,
		Profile:        profile,
		Compute:        ddp.A40ComputeModel(profile.FLOPsPerSample),
		Overlap:        ddp.OverlapNone,
		Seed:           1,
	}
}

// validate normalizes and sanity-checks the configuration.
func (c *Config) validate() error {
	if c.World < 1 {
		return fmt.Errorf("core: world size %d < 1", c.World)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("core: epochs %d < 1", c.Epochs)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("core: batch size %d < 1", c.BatchSize)
	}
	if !(c.PruneRatio >= 0 && c.PruneRatio < 1) {
		return fmt.Errorf("core: prune ratio %v outside [0,1)", c.PruneRatio)
	}
	if c.Scheme == "" {
		return fmt.Errorf("core: scheme must be set")
	}
	if c.Scheme == SchemeAdaptive {
		cands, err := adaptive.CanonicalCandidates(c.AdaptCandidates)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		c.AdaptCandidates = cands
		if !(c.AdaptMargin >= 0 && c.AdaptMargin < 1) {
			return fmt.Errorf("core: adaptive margin %v outside [0,1)", c.AdaptMargin)
		}
		if c.AdaptMargin == 0 {
			c.AdaptMargin = adaptive.DefaultMargin
		}
		if c.AdaptDwell < 0 {
			return fmt.Errorf("core: adaptive dwell %d negative", c.AdaptDwell)
		}
		if c.AdaptDwell == 0 {
			c.AdaptDwell = adaptive.DefaultDwell
		}
	}
	canon, err := collective.CanonicalAlgorithm(c.Collective)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	c.Collective = canon
	c.defaultCostPlane()
	if len(c.Topology.Hosts()) < c.World {
		return fmt.Errorf("core: topology has %d hosts for %d workers", len(c.Topology.Hosts()), c.World)
	}
	if c.StableWindow < 1 {
		c.StableWindow = 2
	}
	if c.TestSamples <= 0 {
		c.TestSamples = 256
	}
	if err := c.RankCompute.Validate(c.World); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	c.RankCompute = c.RankCompute.Canonical()
	// Resolve every name a rank would look up, so that no rank can fail
	// (Run resolves the model). These follow the normalization above, which
	// is all Fingerprint reads.
	if _, ok := schemeByName(c.Scheme); !ok {
		return fmt.Errorf("core: unknown scheme %q (have %v)", c.Scheme, Schemes())
	}
	if c.IsPacTrain() && c.PruneMethod != prune.GlobalMagnitude &&
		c.PruneMethod != prune.LayerMagnitude && c.PruneMethod != prune.GraSP {
		return fmt.Errorf("core: unsupported prune method %d", c.PruneMethod)
	}
	// The optimizer steps in float32, so the learning rate must be one.
	if !(c.LR > 0 && c.LR <= math.MaxFloat32) {
		return fmt.Errorf("core: learning rate %v outside (0,%g]", c.LR, math.MaxFloat32)
	}
	if !(c.Momentum >= 0 && c.Momentum < 1) {
		return fmt.Errorf("core: momentum %v outside [0,1)", c.Momentum)
	}
	if !(c.WeightDecay >= 0 && c.WeightDecay < 1) {
		return fmt.Errorf("core: weight decay %v outside [0,1)", c.WeightDecay)
	}
	if !(c.TargetAcc >= 0 && c.TargetAcc <= 1) {
		return fmt.Errorf("core: target accuracy %v outside [0,1]", c.TargetAcc)
	}
	return nil
}

// defaultCostPlane fills the two simulated-clock inputs a config may leave
// unset: Topology (the paper's Fig. 4 at BottleneckBps) and Compute (an A40
// on the model's profile).
func (c *Config) defaultCostPlane() {
	if c.Topology == nil {
		bw := c.BottleneckBps
		if bw <= 0 {
			bw = 1 * netsim.Gbps
		}
		c.Topology = netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: bw})
	}
	if c.Compute.DeviceFLOPS == 0 {
		c.Compute = ddp.A40ComputeModel(c.Profile.FLOPsPerSample)
	}
}

// NewFabric defaults the config's cost plane and builds the fabric it
// describes, bandwidth traces applied: the fabric Run prices on, and so the
// only one an adaptive log replays exactly on (DESIGN.md §6).
func (c *Config) NewFabric() *netsim.Fabric {
	c.defaultCostPlane()
	fabric := netsim.NewFabric(c.Topology)
	for _, tr := range c.Traces {
		fabric.SetTrace(tr)
	}
	return fabric
}

// shardSamples is every rank's shard size: Run pads the dataset to a
// multiple of World, as DistributedSampler does, so shards are equal.
func (c *Config) shardSamples() int {
	return (c.Data.Samples + c.World - 1) / c.World
}

// EpochBatches returns the mini-batch sizes of one epoch — full batches,
// then the ragged remainder when the shard does not divide by BatchSize.
// Shards are equal and shuffling permutes contents, never sizes, so the
// sequence holds for every rank and every epoch. It is nil when the sample
// count is unknown (synthesized logs), meaning every batch is full.
func (c *Config) EpochBatches() []int {
	if c.Data.Samples <= 0 || c.World < 1 || c.BatchSize < 1 {
		return nil
	}
	var sizes []int
	for rem := c.shardSamples(); rem > 0; rem -= c.BatchSize {
		sizes = append(sizes, min(rem, c.BatchSize))
	}
	return sizes
}

// SchemeAdaptive names the cost-model-driven online compression scheme
// (internal/adaptive): PacTrain's pruning pipeline with a per-bucket
// controller choosing the wire format each round.
const SchemeAdaptive = "adaptive"

// IsPacTrain reports whether the scheme is one of PacTrain's own modes —
// the ones that prune, enforce gradient sparsity, and run the Mask Tracker.
func (c *Config) IsPacTrain() bool {
	return c.Scheme == "pactrain" || c.Scheme == "pactrain-ternary" || c.Scheme == SchemeAdaptive
}

// FabricSensitive reports whether the run's recorded communication depends
// on the fabric itself: the adaptive controller prices candidates against
// live bandwidth, so its decision sequence — and therefore the recorded op
// log — can change with the network. Re-costing such a log is exact only
// under the fabric it was recorded on (DESIGN.md §6); the harness retrains
// fabric-sensitive configs per operating point instead. A controller
// restricted to a single candidate always picks it, making the log
// fabric-independent again.
//
// The same sensitivity extends to the clock inputs of a decision: the
// controller prices at the bucket's launch time, which moves with
// Config.Compute, RankCompute, and Overlap — so a multi-candidate adaptive
// log is only valid under the compute profile it was recorded with, too.
// Static schemes and single-candidate controllers record op sequences that
// depend on gradient values alone, which is what lets the stragglers
// experiment re-cost one recording across every straggler profile and
// overlap mode (DESIGN.md §7).
func (c *Config) FabricSensitive() bool {
	if c.Scheme != SchemeAdaptive {
		return false
	}
	cands, err := adaptive.CanonicalCandidates(c.AdaptCandidates)
	if err != nil {
		return true // invalid lists are rejected by validate anyway
	}
	return len(cands) > 1
}
