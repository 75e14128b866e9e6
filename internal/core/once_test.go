package core

import (
	"math"
	"sync"
	"testing"

	"pactrain/internal/adaptive"
	"pactrain/internal/ddp"
	"pactrain/internal/nn"
	"pactrain/internal/prune"
)

// TestPostSyncGradientsRespectMask pins why the trainer enforces GSE only
// before the sync: under pactrain, pactrain-ternary and the adaptive scheme
// restricted to each wire format, in both overlap modes, every pruned
// gradient coordinate is the +0 bit pattern once the synchronized buckets
// have scattered back — through warm-up, unstable rounds and the stable path.
func TestPostSyncGradientsRespectMask(t *testing.T) {
	defer func() { maskHook, syncHook = nil, nil }()
	type variant struct{ scheme, format string }
	variants := []variant{{"pactrain", ""}, {"pactrain-ternary", ""}}
	for _, f := range []string{adaptive.FormatDense, adaptive.FormatCompact,
		adaptive.FormatCompactTernary, adaptive.FormatIndexList} {
		variants = append(variants, variant{SchemeAdaptive, f})
	}
	for _, v := range variants {
		for _, overlap := range []ddp.Overlap{ddp.OverlapNone, ddp.OverlapBackward} {
			cfg := tinyConfig(v.scheme)
			cfg.Overlap = overlap
			if v.format != "" {
				cfg.AdaptCandidates = []string{v.format}
			}
			name := v.scheme + "/" + v.format + "/" + overlap.String()

			masks := make([]*prune.Mask, cfg.World)
			compact := make([]int, cfg.World)
			var mu sync.Mutex
			var bad []string
			maskHook = func(rank int, _ *nn.Model, mask *prune.Mask) { masks[rank] = mask }
			syncHook = func(rank int, model *nn.Model, hook ddp.Hook) {
				compact[rank] = hook.(*pacTrainHook).CompactSyncs
				if masks[rank] == nil {
					return
				}
				for _, p := range model.Params() {
					for i, keep := range masks[rank].Keep[p.Name] {
						if g := p.Grad.Data()[i]; !keep && math.Float32bits(g) != 0 {
							mu.Lock()
							bad = append(bad, p.Name)
							mu.Unlock()
							return
						}
					}
				}
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if len(bad) != 0 {
				t.Errorf("%s: a pruned gradient coordinate is not +0 after the sync (%v)", name, bad)
			}
			if masks[0] == nil || compact[0] == 0 {
				t.Errorf("%s: never pruned or never took the stable path (%d stable rounds)", name, compact[0])
			}
		}
	}
}

// TestSharedTrackerObservedOncePerRound pins the once-per-cluster Mask
// Tracker: every rank's hook reads one tracker per bucket per mask
// generation, and the trackers' observations across the run add up to the
// run's full-sync count — one per unstable round, not World per round.
func TestSharedTrackerObservedOncePerRound(t *testing.T) {
	defer func() { syncHook = nil }()
	for _, scheme := range []string{"pactrain", SchemeAdaptive} {
		cfg := tinyConfig(scheme)
		hooks := make([]*pacTrainHook, cfg.World)
		syncHook = func(rank int, _ *nn.Model, hook ddp.Hook) { hooks[rank] = hook.(*pacTrainHook) }
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		set := hooks[0].env.trackers
		for _, h := range hooks[1:] {
			if h.env.trackers != set || h.FullSyncs != hooks[0].FullSyncs {
				t.Fatalf("%s: ranks do not share one tracker set in lockstep", scheme)
			}
		}
		observations := 0
		set.Range(func(_, st any) bool {
			observations += st.(*sharedTracker).observations
			return true
		})
		if full := hooks[0].FullSyncs; observations != full || full == 0 || hooks[0].gen != 1 {
			t.Errorf("%s: %d tracker observations over %d full syncs (generation %d); want one per full sync",
				scheme, observations, full, hooks[0].gen)
		}
	}
}
