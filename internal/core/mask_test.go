package core

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pactrain/internal/netsim"
	"pactrain/internal/nn"
	"pactrain/internal/prune"
)

// TestMagnitudeMaskDerivedOncePerRun pins the sharing of the pruning mask at
// World 8: for both magnitude methods the pruner's one result per Run is the
// mask all eight ranks train under, and it equals bit for bit the mask every
// rank would have derived from its own replica; GraSP still derives one mask
// per rank. The Result of one config per method is the parent commit's.
func TestMagnitudeMaskDerivedOncePerRun(t *testing.T) {
	defer func() { maskHook = nil }()
	for _, tc := range []struct {
		method      prune.Method
		wantMasks   int
		fingerprint string
		simSeconds  float64
		sparsity    float64
		checksum    float64
	}{
		{prune.GlobalMagnitude, 1, "fa8e642c63bed741", 0.40267708692049375, 0.4987413467589679, -0.3579491887903714},
		{prune.LayerMagnitude, 1, "879d714202a68b1a", 0.4070187654770413, 0.4987783659719394, -4.468267680895224},
		{prune.GraSP, 8, "1a2c56953a016286", 0.4080438544839627, 0.4987413467589679, -79.6848972022799},
	} {
		cfg := tinyConfig("pactrain-ternary")
		cfg.World, cfg.Epochs, cfg.PruneMethod = 8, 2, tc.method
		cfg.Topology = netsim.FlatTopology(8, netsim.Gbps, 1e-5)

		var mismatches atomic.Int64
		var mu sync.Mutex
		masks := map[*prune.Mask]bool{}
		maskHook = func(rank int, model *nn.Model, mask *prune.Mask) {
			mu.Lock()
			masks[mask] = true
			mu.Unlock()
			if tc.method == prune.GraSP {
				return
			}
			own, err := prune.MagnitudePrune(model, cfg.PruneRatio, cfg.PruneMethod)
			if err != nil || !maps.EqualFunc(own.Keep, mask.Keep, slices.Equal[[]bool]) {
				mismatches.Add(1)
			}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(masks) != tc.wantMasks {
			t.Errorf("%v: one Run derived %d masks for its 8 ranks, want %d", tc.method, len(masks), tc.wantMasks)
		}
		if n := mismatches.Load(); n != 0 {
			t.Errorf("%v: %d ranks would have derived a different mask from their own replica", tc.method, n)
		}
		if fp := cfg.Fingerprint(); fp != tc.fingerprint {
			t.Errorf("%v: fingerprint %s, want %s", tc.method, fp, tc.fingerprint)
		}
		if res.SimSeconds != tc.simSeconds || res.MaskSparsity != tc.sparsity {
			t.Errorf("%v: SimSeconds %v, MaskSparsity %v; want %v, %v",
				tc.method, res.SimSeconds, res.MaskSparsity, tc.simSeconds, tc.sparsity)
		}
		for rank, sum := range res.WeightChecksums {
			if sum != tc.checksum {
				t.Errorf("%v: rank %d weight checksum %v, want %v", tc.method, rank, sum, tc.checksum)
			}
		}
	}
}
