package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
)

// runDigest hashes everything a sync hook can move: every field of every
// CommOp rank 0 recorded (floats by bit pattern), the bucket geometry, the
// simulated clock and all rank weight checksums.
func runDigest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "buckets %v\n", res.CommLog.BucketElems)
	for i, ops := range res.CommLog.Iters {
		for _, op := range ops {
			fmt.Fprintf(h, "%d %d %d %v %v %d %d %x %s %x %x %q %d %x\n", i,
				op.Kind, op.Elements, op.Sizes, op.Blocks, op.Union, op.BlockSz,
				math.Float64bits(op.Scale), op.Wire.Name,
				math.Float64bits(op.Wire.BytesPerElement), math.Float64bits(op.Wire.HeaderBytes),
				op.Decision, op.Bucket, math.Float64bits(op.LaunchAt))
		}
	}
	fmt.Fprintf(h, "sim %x\n", math.Float64bits(res.SimSeconds))
	for _, cs := range res.WeightChecksums {
		fmt.Fprintf(h, "cs %x\n", math.Float64bits(cs))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// oscillatingAdaptiveConfig is the tiny adaptive config on a WAN-latency
// fabric whose every link alternates between full speed and a deep dip, so
// the controller (all four candidates) really switches formats mid-run.
func oscillatingAdaptiveConfig() Config {
	cfg := tinyConfig(SchemeAdaptive)
	cfg.Topology = netsim.FlatTopology(4, netsim.Gbps, 5e-3)
	for li := range cfg.Topology.Links {
		var segs []netsim.TraceSegment
		for k := 0; k < 512; k++ {
			scale := 1.0
			if k%2 == 1 {
				scale = 0.002
			}
			segs = append(segs, netsim.TraceSegment{UntilSec: float64(k+1) * 1.5, Scale: scale})
		}
		cfg.Traces = append(cfg.Traces, &netsim.BandwidthTrace{LinkIndex: li, Segments: segs})
	}
	return cfg
}

// timelineConfig sets per-bucket overlap (when overlap is true) and the rank
// compute profile on cfg: the two features that move rank clocks apart.
func timelineConfig(cfg Config, overlap bool, rc ddp.RankCompute) Config {
	if overlap {
		cfg.Overlap = ddp.OverlapBackward
	}
	cfg.RankCompute = rc
	return cfg
}

// TestPinnedRunDigests holds every hook family to a digest recorded at the
// commit before the PacTrain and adaptive hooks were merged (PR 24's
// parent; the topk-0.1 and dgc-0.1 rows at the commit before top-k's sampled
// threshold was replaced; the straggler and overlap rows at the commit before
// the trainer and Replay shared one clock walk; the conv twin rows at the
// commit before convolution stopped lowering; the attention twin's row at the
// commit before GELU, ReLU and BatchNorm ran on vector lanes). A moved digest
// is a moved report byte: never re-record one to make a change pass.
func TestPinnedRunDigests(t *testing.T) {
	ragged := tinyConfig("topk-0.01")
	ragged.Data.Samples = 300
	pinned := []struct {
		name   string
		cfg    Config
		digest string
	}{
		{"straggler-jitter", timelineConfig(tinyConfig("pactrain-ternary"), false,
			ddp.RankCompute{Multipliers: netsim.OneSlowRank(4, 2), JitterFrac: 0.1, JitterSeed: 7}),
			"06ee56c85d41b892cc1d9436c6468aff"},
		{"overlap-straggler", timelineConfig(tinyConfig("pactrain"), true,
			ddp.RankCompute{Multipliers: netsim.OneSlowRank(4, 2.5), JitterFrac: 0.2, JitterSeed: 7}),
			"07574bbd2c1abc0725c52459fd8afcf0"},
		{"adaptive-overlap-ramp", timelineConfig(oscillatingAdaptiveConfig(), true,
			ddp.RankCompute{Multipliers: netsim.RampRanks(4, 3)}),
			"a2bd43315d8b35f74401624719cc9beb"},
		{"ragged-overlap-straggler", timelineConfig(ragged, true,
			ddp.RankCompute{Multipliers: netsim.OneSlowRank(4, 2), JitterFrac: 0.1, JitterSeed: 7}),
			"ed646cad112cd71e265789cf20a9c2dd"},
		{"pactrain", tinyConfig("pactrain"), "71035e9252fc14b5867ff4aa4a30c06c"},
		{"pactrain-ternary", tinyConfig("pactrain-ternary"), "c93d68781d9f0758db585f6b7330d937"},
		{"adaptive", oscillatingAdaptiveConfig(), "75f5f79e377dc3ccfec588eee3fc72db"},
		{"zen", tinyConfig("zen"), "97a7ffa2f04f7171dea14b3d0c998628"},
		{"topk-0.01", tinyConfig("topk-0.01"), "9fbd11d2ff8b38ded73c16cb2f8dfc07"},
		{"dgc-0.01", tinyConfig("dgc-0.01"), "6fa7d4e1cde9a6d95d71386113fff345"},
		{"topk-0.1", tinyConfig("topk-0.1"), "b9b2b5843ff4f4ac28cff51439844d5e"},
		{"dgc-0.1", tinyConfig("dgc-0.1"), "baf5087dc691c9aef2dc91f5879d44f2"},
		{"omnireduce", tinyConfig("omnireduce"), "15035b341b5460f392b9a74977b23760"},
		{"ps", tinyConfig("ps"), "7d4d3f2f0da16a25cfe9a1ec84d381ff"},
		{"fp16", tinyConfig("fp16"), "8b125556dd26327d0a28f573186e177b"},
		// The conv twins, dense and pruned epochs, recorded while Conv2D still
		// lowered through im2col and col2im.
		{"ResNet18", tinyTwinConfig("ResNet18"), "02653eb93275741856206c1b832d7a06"},
		{"VGG19", tinyTwinConfig("VGG19"), "c5993af4d1b1c7adb665e343c9fa90aa"},
		// The attention twin, recorded while GELU still called math.Tanh per
		// element.
		{"ViT-Base-16", tinyTwinConfig("ViT-Base-16"), "e0a7103115a22ac16bc28b39d320ade0"},
	}
	for _, p := range pinned {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(p.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.cfg.Scheme == SchemeAdaptive {
				if res.AdaptiveSwitches == 0 || len(res.AdaptiveDecisions) < 2 {
					t.Fatalf("controller never switched: %d switches, decisions %v",
						res.AdaptiveSwitches, res.AdaptiveDecisions)
				}
			}
			if got := runDigest(res); got != p.digest {
				t.Errorf("%s digest %s, pinned %s", p.name, got, p.digest)
			}
		})
	}
}

// evalDigest hashes rank 0's evaluation trajectory and the heartbeat sequence
// delivered to OnProgress, floats by bit pattern.
func evalDigest(res *Result, beats []Progress) string {
	h := sha256.New()
	for _, p := range res.Curve.Points {
		fmt.Fprintf(h, "pt %d %d %x %x %x\n", p.Iter, p.Epoch, math.Float64bits(p.SimTime),
			math.Float64bits(p.Acc), math.Float64bits(p.Loss))
	}
	for _, b := range beats {
		fmt.Fprintf(h, "hb %d %d %x %x %x %q\n", b.Iter, b.Epoch, math.Float64bits(b.SimSeconds),
			math.Float64bits(b.Acc), math.Float64bits(b.Loss), b.Format)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// tinyTwinConfig is tinyConfig on a narrow conv or attention twin, evaluated
// every other iteration on a test split whose last chunk is ragged (64 + 6).
// Its 24 iterations move BatchNorm's running statistics far enough from
// their initial values that evaluating without them changes the digest.
func tinyTwinConfig(model string) Config {
	cfg := tinyConfig("pactrain-ternary")
	cfg.ModelName = model
	cfg.Lite.Width = 4
	cfg.Data.Samples, cfg.TestSamples = 256, 70
	cfg.EvalEvery = 2
	return cfg
}

// TestPinnedEvalDigests holds the evaluation trajectory and the heartbeats of
// a BatchNorm twin, an attention twin and a format-switching adaptive run to
// digests recorded while rank 0 still evaluated inline, between its own
// training steps; the overlapped ramp row, whose curve times come from the
// clock walk, was recorded before the trainer shared it with Replay. Never
// re-record one to make a change pass.
func TestPinnedEvalDigests(t *testing.T) {
	adaptive := oscillatingAdaptiveConfig()
	adaptive.EvalEvery = 3
	ramp := timelineConfig(adaptive, true, ddp.RankCompute{Multipliers: netsim.RampRanks(4, 3)})
	pinned := []struct {
		name   string
		cfg    Config
		digest string
	}{
		{"ResNet18", tinyTwinConfig("ResNet18"), "a87c6843b9f74427894ee7e46c6bf43c"},
		{"ViT-Base-16", tinyTwinConfig("ViT-Base-16"), "3469680e737cf924a488be2599b4fa72"},
		{"adaptive", adaptive, "3440f43991345be6e457c9e06482c55f"},
		{"adaptive-overlap-ramp", ramp, "c0d668113238a3376334ac46aff45c57"},
	}
	for _, p := range pinned {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			var beats []Progress
			p.cfg.OnProgress = func(b Progress) { beats = append(beats, b) }
			res, err := Run(p.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Read after Run returns: every heartbeat must have been delivered
			// by then (-race checks that none is delivered later).
			if len(beats) != len(res.Curve.Points) || len(beats) < 6 {
				t.Fatalf("%d heartbeats, %d curve points", len(beats), len(res.Curve.Points))
			}
			if got := evalDigest(res, beats); got != p.digest {
				t.Errorf("%s eval digest %s, pinned %s", p.name, got, p.digest)
			}
		})
	}
}
