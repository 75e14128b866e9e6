package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"pactrain/internal/netsim"
	"pactrain/internal/par"
)

// TestTrainingBitExactAcrossKernelBudgets pins the PR's headline contract at
// the system level: an entire training run — forward/backward through every
// layer kind (MLP, conv+batchnorm+pool, attention+layernorm), compression
// kernels, collective pricing, accuracy curve — is byte-identical whether
// the parallel kernels run on one worker or eight. Not mark-parallel: the
// kernel budget is process-global.
func TestTrainingBitExactAcrossKernelBudgets(t *testing.T) {
	defer par.SetBudget(par.Budget())
	cases := []struct {
		model, scheme string
		heavy         bool // skipped under -short, run in the full/race CI lanes
	}{
		{model: "", scheme: "pactrain-ternary"}, // tinyConfig default (MLP)
		{model: "", scheme: "topk-0.1"},
		{model: "VGG19", scheme: "pactrain-ternary", heavy: true},
		{model: "ResNet18", scheme: "pactrain-ternary", heavy: true}, // stride-2 and 1×1 shortcut convs
		{model: "ViT-Base-16", scheme: "pactrain-ternary", heavy: true},
	}
	for _, tc := range cases {
		name := tc.model
		if name == "" {
			name = "MLP"
		}
		if tc.heavy && testing.Short() {
			continue
		}
		cfg := tinyConfig(tc.scheme)
		cfg.Epochs = 2
		if tc.model != "" {
			cfg.ModelName = tc.model
		}

		par.SetBudget(1)
		scalar, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		par.SetBudget(8)
		parallel, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		if scalar.FinalAcc != parallel.FinalAcc || scalar.BestAcc != parallel.BestAcc {
			t.Fatalf("%s/%s: accuracy differs across budgets: %v/%v vs %v/%v",
				name, tc.scheme, scalar.FinalAcc, scalar.BestAcc, parallel.FinalAcc, parallel.BestAcc)
		}
		if scalar.SimSeconds != parallel.SimSeconds {
			t.Fatalf("%s/%s: simulated time differs across budgets: %v vs %v",
				name, tc.scheme, scalar.SimSeconds, parallel.SimSeconds)
		}
		if len(scalar.WeightChecksums) != len(parallel.WeightChecksums) {
			t.Fatalf("%s/%s: world size changed", name, tc.scheme)
		}
		for r := range scalar.WeightChecksums {
			if scalar.WeightChecksums[r] != parallel.WeightChecksums[r] {
				t.Fatalf("%s/%s: rank %d weights differ across budgets: %v vs %v",
					name, tc.scheme, r, scalar.WeightChecksums[r], parallel.WeightChecksums[r])
			}
		}
		for i, p := range scalar.Curve.Points {
			if p != parallel.Curve.Points[i] {
				t.Fatalf("%s/%s: curve point %d differs across budgets: %+v vs %+v",
					name, tc.scheme, i, p, parallel.Curve.Points[i])
			}
		}
	}
}

// TestRanksCountAgainstKernelBudget pins par's budget rule where the trainer
// applies it: at budget 2 the kernels of a World=8 run never go to the pool
// (each rank's share of the budget is below one extra core), while a World=1
// run fans out. Every rank issues one kernel-sized dispatch through the test
// hook and reports how many chunks it was given; no rank leaves the hook
// before all have dispatched, because a rank that has moved on to wait at a
// collective hands its share back.
func TestRanksCountAgainstKernelBudget(t *testing.T) {
	defer par.SetBudget(par.Budget())
	defer func() { rankStartHook = nil }()
	par.SetBudget(2)
	for _, tc := range []struct{ world, wantChunks int }{{8, 1}, {1, 2}} {
		var wrong atomic.Int64
		var all sync.WaitGroup
		all.Add(tc.world)
		rankStartHook = func() {
			if par.ForChunks(par.MinWork*8, func(_, _, _ int) {}) != tc.wantChunks {
				wrong.Add(1)
			}
			all.Done()
			all.Wait()
		}
		cfg := tinyConfig("all-reduce")
		cfg.World, cfg.Epochs = tc.world, 1
		cfg.Topology = netsim.FlatTopology(tc.world, netsim.Gbps, 1e-5)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if wrong.Load() != 0 {
			t.Fatalf("world %d at budget 2: %d ranks were not given %d chunk(s)", tc.world, wrong.Load(), tc.wantChunks)
		}
	}
	if got := par.PlanChunks(par.MinWork*8, par.MinWork*8); got != 2 {
		t.Fatalf("after the runs a lone caller plans %d chunks at budget 2, want 2: Run left ranks registered", got)
	}
}
