package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"pactrain/internal/collective"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
)

// Fingerprint returns a deterministic hex digest identifying everything
// about a run that can influence its Result. Two configs with equal
// fingerprints produce bit-identical results from Run, so the experiment
// engine may train one and share the Result.
//
// The digest is computed over a canonical field-by-field serialization of a
// normalized copy of the config:
//
//   - defaults are applied first (the same normalization Run performs), so a
//     zero field and its explicit default collapse to one key;
//   - fields that the selected scheme provably never reads (the PacTrain
//     pruning knobs on non-PacTrain schemes) are canonicalized away, letting
//     e.g. Fig. 6's ratio-0 all-reduce reference deduplicate against the
//     plain all-reduce baseline;
//   - the topology is serialized structurally (nodes, links, bandwidths,
//     latencies), not by pointer, so independently constructed equal
//     topologies match.
func (c *Config) Fingerprint() string {
	cp := *c
	// Normalize exactly as Run will; an invalid config is fingerprinted
	// as-is (Run will reject it regardless of what the engine does).
	_ = cp.validate()
	if !cp.IsPacTrain() {
		// Only the PacTrain hook and its mask construction read these
		// (see buildHook and the pruning step in runWorker).
		cp.PruneRatio = 0
		cp.PruneMethod = 0
		cp.PretrainEpochs = 0
		cp.StableWindow = 0
	}
	if cp.Scheme != SchemeAdaptive {
		// Only the adaptive controller reads these; see also the key
		// emission below — non-adaptive configs never write them, so every
		// pre-adaptive fingerprint (and warm disk cache) is unchanged.
		cp.AdaptMargin = 0
		cp.AdaptDwell = 0
		cp.AdaptCandidates = nil
	}

	var b []byte
	w := func(key string, v any) {
		b = fmt.Appendf(b, "%s=%v\n", key, v)
	}
	w("model", cp.ModelName)
	w("lite", cp.Lite)
	w("data", cp.Data)
	w("test_samples", cp.TestSamples)
	w("world", cp.World)
	w("scheme", cp.Scheme)
	// The collective algorithm changes only the simulated clock, but the
	// clock is part of the Result, so it keys the cache. validate already
	// canonicalized "" to "ring"; the ring default is omitted entirely so
	// pre-existing fingerprints (and warm disk caches) survive unchanged.
	if cp.Collective != "" && cp.Collective != collective.DefaultAlgorithm {
		w("collective", cp.Collective)
	}
	w("prune_ratio", cp.PruneRatio)
	w("prune_method", int(cp.PruneMethod))
	w("pretrain_epochs", cp.PretrainEpochs)
	w("stable_window", cp.StableWindow)
	if cp.Scheme == SchemeAdaptive {
		// validate already normalized the knobs (defaults applied,
		// candidates canonicalized), so equivalent spellings collapse.
		w("adapt_margin", cp.AdaptMargin)
		w("adapt_dwell", cp.AdaptDwell)
		w("adapt_candidates", strings.Join(cp.AdaptCandidates, ","))
	}
	w("epochs", cp.Epochs)
	w("batch", cp.BatchSize)
	w("lr", cp.LR)
	w("momentum", cp.Momentum)
	w("weight_decay", cp.WeightDecay)
	w("target_acc", cp.TargetAcc)
	w("eval_every", cp.EvalEvery)
	w("bucket_bytes", cp.BucketBytes)
	w("profile", cp.Profile)
	w("compute", cp.Compute)
	w("overlap", int(cp.Overlap))
	if cp.Overlap == ddp.OverlapBackward {
		// The per-bucket timeline replaced the single-floor overlap
		// approximation; this marker retires any pre-timeline
		// overlap-backward digest (whose clock the old closed form priced)
		// without touching the serialized default, whose key above is
		// byte-identical to every historical fingerprint.
		w("overlap_model", "per-bucket")
	}
	if cp.RankCompute.Enabled() {
		// Emitted only when heterogeneity is on (validate canonicalized the
		// knobs first), so homogeneous fingerprints — and every warm disk
		// cache — are untouched.
		w("rank_mult", cp.RankCompute.Multipliers)
		w("rank_jitter", cp.RankCompute.JitterFrac)
		w("rank_jitter_seed", cp.RankCompute.JitterSeed)
	}
	w("seed", cp.Seed)
	// Every run records its log. The constant line keeps every fingerprint,
	// and so every warm cache, as it was while recording was optional.
	w("record_comm", true)

	b = appendFabric(b, cp.Topology, cp.Traces)

	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// appendFabric appends the structural serialization of a topology and its
// traces. These lines are most of a fingerprint's input (a racked fabric has
// thousands of links), so they are appended directly, every int and float
// spelled exactly as fmt's %d and %v spell it
// (TestFingerprintFabricMatchesFmt).
func appendFabric(b []byte, topo *netsim.Topology, traces []*netsim.BandwidthTrace) []byte {
	line := func(key string, ints []int, floats ...float64) {
		b = append(b, key...)
		first := len(b)
		for _, v := range ints {
			if len(b) > first {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		for _, v := range floats {
			if len(b) > first {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	if topo != nil {
		line("topo_nodes=", []int{len(topo.Nodes)})
		for _, n := range topo.Nodes {
			line("node=", []int{int(n.ID), int(n.Kind)})
		}
		for i, l := range topo.Links {
			line("link=", []int{i, int(l.A), int(l.B)}, l.BandwidthBps, l.LatencySec)
		}
	}
	// A trace whose segments repeat the previous trace's bit for bit copies
	// the text already made.
	var prev []netsim.TraceSegment
	var segsFrom, segsTo int
	for _, tr := range traces {
		line("trace=", []int{tr.LinkIndex})
		if slices.EqualFunc(tr.Segments, prev, sameBits) {
			b = append(b, b[segsFrom:segsTo]...)
			continue
		}
		prev, segsFrom = tr.Segments, len(b)
		for _, s := range tr.Segments {
			line("seg=", nil, s.UntilSec, s.Scale)
		}
		segsTo = len(b)
	}
	return b
}

func sameBits(x, y netsim.TraceSegment) bool {
	return math.Float64bits(x.UntilSec) == math.Float64bits(y.UntilSec) &&
		math.Float64bits(x.Scale) == math.Float64bits(y.Scale)
}
