package core

import (
	"math"
	"testing"

	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
)

// stragglerConfig returns a tiny heterogeneous configuration: 4 workers,
// the last one running slower by factor, with optional per-iteration
// jitter.
func stragglerConfig(scheme string, factor, jitter float64) Config {
	cfg := tinyConfig(scheme)
	cfg.RankCompute = ddp.RankCompute{
		Multipliers: netsim.OneSlowRank(cfg.World, factor),
		JitterFrac:  jitter,
		JitterSeed:  7,
	}
	return cfg
}

// TestStragglerClocksKeepWeightsLockstep is the tentpole's core invariant:
// heterogeneity diverges the per-rank clocks — the straggler's compute is
// slower every iteration — but the data plane still averages identically,
// so the replicas' weights must never diverge.
func TestStragglerClocksKeepWeightsLockstep(t *testing.T) {
	for _, scheme := range []string{"all-reduce", "pactrain-ternary"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			uniform, err := Run(tinyConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(stragglerConfig(scheme, 2.0, 0.1))
			if err != nil {
				t.Fatal(err)
			}
			for rank, cs := range res.WeightChecksums {
				if math.Abs(cs-res.WeightChecksums[0]) > 1e-6 {
					t.Fatalf("replica %d diverged under straggler clocks: %v vs %v",
						rank, cs, res.WeightChecksums[0])
				}
			}
			// Convergence is clock-independent; only simulated time moves.
			if res.FinalAcc != uniform.FinalAcc {
				t.Fatalf("straggler changed convergence: %v vs %v", res.FinalAcc, uniform.FinalAcc)
			}
			if res.SimSeconds <= uniform.SimSeconds {
				t.Fatalf("a 2× straggler must slow the cluster: %v vs uniform %v",
					res.SimSeconds, uniform.SimSeconds)
			}
		})
	}
}

// TestStragglerRunIsDeterministic pins the jitter stream: identical configs
// (multipliers, jitter fraction, jitter seed) reproduce identical clocks.
func TestStragglerRunIsDeterministic(t *testing.T) {
	a, err := Run(stragglerConfig("all-reduce", 1.7, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(stragglerConfig("all-reduce", 1.7, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if a.SimSeconds != b.SimSeconds || a.FinalAcc != b.FinalAcc {
		t.Fatalf("straggler run not reproducible: time %v/%v acc %v/%v",
			a.SimSeconds, b.SimSeconds, a.FinalAcc, b.FinalAcc)
	}
	c, err := Run(stragglerConfig("all-reduce", 1.7, 0.2000001))
	if err != nil {
		t.Fatal(err)
	}
	if c.SimSeconds == a.SimSeconds {
		t.Fatal("changing the jitter fraction must move the clock")
	}
}

// TestStragglerPerBucketOverlap checks the exact overlap model end to end:
// overlapping communication with backward can only help, never below the
// compute floor, and never changes convergence.
func TestStragglerPerBucketOverlap(t *testing.T) {
	mk := func(overlap ddp.Overlap, factor float64) *Result {
		cfg := tinyConfig("all-reduce")
		if factor > 1 {
			cfg.RankCompute = ddp.RankCompute{Multipliers: netsim.OneSlowRank(cfg.World, factor)}
		}
		cfg.Overlap = overlap
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, factor := range []float64{1, 2} {
		serial := mk(ddp.OverlapNone, factor)
		overlapped := mk(ddp.OverlapBackward, factor)
		if overlapped.SimSeconds >= serial.SimSeconds {
			t.Fatalf("factor %v: per-bucket overlap (%v) must beat the serialized clock (%v)",
				factor, overlapped.SimSeconds, serial.SimSeconds)
		}
		if overlapped.FinalAcc != serial.FinalAcc {
			t.Fatalf("overlap changed convergence: %v vs %v", overlapped.FinalAcc, serial.FinalAcc)
		}
		// Overlap hides communication under backward; it cannot hide the
		// compute itself. The slowest rank's compute alone floors the run.
		cfg := tinyConfig("all-reduce")
		floor := float64(overlapped.Iterations) * cfg.Compute.IterSeconds(cfg.BatchSize) * factor
		if overlapped.SimSeconds < floor {
			t.Fatalf("factor %v: clock %v below the straggler's compute floor %v",
				factor, overlapped.SimSeconds, floor)
		}
	}
}

// TestStragglerAdaptiveLockstep drives the adaptive controller under
// diverged rank clocks and per-bucket overlap: every rank's clock walk
// derives the same synchronized decision time, so the controller
// must stay in lockstep (divergence would deadlock the rendezvous or split
// the weights).
func TestStragglerAdaptiveLockstep(t *testing.T) {
	cfg := stragglerConfig(SchemeAdaptive, 2.0, 0.1)
	cfg.Overlap = ddp.OverlapBackward
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rank, cs := range res.WeightChecksums {
		if math.Abs(cs-res.WeightChecksums[0]) > 1e-6 {
			t.Fatalf("replica %d diverged under adaptive straggler run", rank)
		}
	}
	if res.StableFraction <= 0 {
		t.Fatal("adaptive run never reached the controller-driven path")
	}
	if len(res.AdaptiveDecisions) == 0 {
		t.Fatal("no controller decisions recorded")
	}
}

// TestStragglerValidation rejects malformed heterogeneity knobs.
func TestStragglerValidation(t *testing.T) {
	cfg := tinyConfig("all-reduce")
	cfg.RankCompute.Multipliers = []float64{1, 1, 1, 1, 1} // 5 multipliers, 4 ranks
	if _, err := Run(cfg); err == nil {
		t.Fatal("more multipliers than ranks must fail")
	}
	cfg = tinyConfig("all-reduce")
	cfg.RankCompute.Multipliers = []float64{0, 1, 1, 1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero multiplier must fail")
	}
	cfg = tinyConfig("all-reduce")
	cfg.RankCompute.JitterFrac = 1.5
	if _, err := Run(cfg); err == nil {
		t.Fatal("jitter ≥ 1 must fail")
	}
}

// TestStragglerLogCarriesBucketGeometry checks the recorded log has what
// Replay needs: bucket element counts and per-op bucket
// indices with launch times.
func TestStragglerLogCarriesBucketGeometry(t *testing.T) {
	cfg := stragglerConfig("pactrain-ternary", 2.0, 0)
	cfg.Overlap = ddp.OverlapBackward
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CommLog.BucketElems) == 0 {
		t.Fatal("log missing bucket geometry")
	}
	total := 0
	for _, n := range res.CommLog.BucketElems {
		total += n
	}
	if total == 0 {
		t.Fatal("empty bucket geometry")
	}
	prevLaunch := 0.0
	for _, ops := range res.CommLog.Iters {
		for _, op := range ops {
			if op.Bucket < 0 || op.Bucket >= len(res.CommLog.BucketElems) {
				t.Fatalf("op bucket %d out of range", op.Bucket)
			}
			if op.LaunchAt < prevLaunch {
				t.Fatalf("launch times must be monotone: %v after %v", op.LaunchAt, prevLaunch)
			}
			prevLaunch = op.LaunchAt
		}
	}
	if prevLaunch <= 0 {
		t.Fatal("no launch times recorded")
	}
}
