package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"pactrain/internal/adaptive"
)

func TestAdaptiveSchemeRuns(t *testing.T) {
	cfg := tinyConfig(SchemeAdaptive)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= 0.3 {
		t.Fatalf("adaptive scheme failed to learn: acc %v", res.FinalAcc)
	}
	// Lockstep: every rank must have made the same decisions, or the
	// replicas diverge.
	for rank, cs := range res.WeightChecksums {
		if math.Abs(cs-res.WeightChecksums[0]) > 1e-6 {
			t.Fatalf("replica %d diverged under the adaptive scheme", rank)
		}
	}
	if res.StableFraction <= 0 {
		t.Fatal("controller never drove a sync (mask never stabilized)")
	}
	// Decision telemetry and the comm-record decision log must agree that
	// controller rounds happened.
	if len(res.AdaptiveDecisions) == 0 {
		t.Fatal("missing AdaptiveDecisions telemetry")
	}
	tagged := 0
	for _, ops := range res.CommLog.Iters {
		for _, op := range ops {
			if op.Decision != "" {
				tagged++
			}
		}
	}
	if tagged == 0 {
		t.Fatal("no decision-tagged ops in the comm record")
	}
	var rounds int
	for _, n := range res.AdaptiveDecisions {
		rounds += n
	}
	// Rank 0 records every op; each controller round issues exactly one
	// tagged op, so the record and the telemetry must match.
	if tagged != rounds {
		t.Fatalf("comm record has %d decision-tagged ops, telemetry counted %d rounds", tagged, rounds)
	}
}

// TestAdaptiveSingleCandidateMatchesPacTrainTernary (and plain pactrain)
// pins that a fixed-format scheme is the adaptive scheme with one candidate:
// a controller restricted to a single format must reproduce the scheme whose
// constant that format is — same warm-up, same tracker schedule, same
// compressor seeds — op for op and checksum for checksum. The Decision tag
// is the one permitted difference (the fixed schemes decide nothing).
func TestAdaptiveSingleCandidateMatchesPacTrainTernary(t *testing.T) {
	for scheme, format := range map[string]string{
		"pactrain":         adaptive.FormatCompact,
		"pactrain-ternary": adaptive.FormatCompactTernary,
	} {
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			fixed, err := Run(tinyConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			adCfg := tinyConfig(SchemeAdaptive)
			adCfg.AdaptCandidates = []string{format}
			ad, err := Run(adCfg)
			if err != nil {
				t.Fatal(err)
			}
			if ad.FinalAcc != fixed.FinalAcc || ad.SimSeconds != fixed.SimSeconds ||
				ad.StableFraction != fixed.StableFraction {
				t.Fatalf("adaptive{%s} acc %v clock %v stable %v; %s acc %v clock %v stable %v", format,
					ad.FinalAcc, ad.SimSeconds, ad.StableFraction,
					scheme, fixed.FinalAcc, fixed.SimSeconds, fixed.StableFraction)
			}
			if !reflect.DeepEqual(ad.WeightChecksums, fixed.WeightChecksums) {
				t.Fatalf("rank checksums diverged: %v vs %v", ad.WeightChecksums, fixed.WeightChecksums)
			}
			if len(ad.CommLog.Iters) != len(fixed.CommLog.Iters) {
				t.Fatalf("%d iterations recorded vs %d", len(ad.CommLog.Iters), len(fixed.CommLog.Iters))
			}
			tagged := 0
			for i, ops := range fixed.CommLog.Iters {
				if len(ops) != len(ad.CommLog.Iters[i]) {
					t.Fatalf("iter %d: %d ops vs %d", i, len(ad.CommLog.Iters[i]), len(ops))
				}
				for j, want := range ops {
					got := ad.CommLog.Iters[i][j]
					if want.Decision != "" {
						t.Fatalf("iter %d op %d: %s recorded a Decision %q", i, j, scheme, want.Decision)
					}
					if got.Decision != "" {
						if got.Decision != format {
							t.Fatalf("iter %d op %d: decision %q, want %q", i, j, got.Decision, format)
						}
						tagged++
						got.Decision = ""
					}
					if !reflect.DeepEqual(got, want) { // LaunchAt by value == by bits (never NaN)
						t.Fatalf("iter %d op %d: adaptive %+v, %s %+v", i, j, got, scheme, want)
					}
				}
			}
			if tagged == 0 {
				t.Fatal("the single-candidate controller never drove a round")
			}
		})
	}
}

// TestFixedFormatBuildsNoController pins that the fixed-format schemes are
// controller-less: no controller is built, so there is no decision
// telemetry in the Result (or the cache JSON made from it) and heartbeats
// name no format.
func TestFixedFormatBuildsNoController(t *testing.T) {
	for _, scheme := range []string{"pactrain", "pactrain-ternary"} {
		cfg := tinyConfig(scheme)
		def, _ := schemeByName(scheme)
		pac := buildHook(&cfg, def, &hookEnv{}).(*pacTrainHook)
		if counts, switches := pac.FormatCounts(); pac.ctrl != nil || counts != nil || switches != 0 {
			t.Fatalf("%s built a controller (counts %v, switches %d)", scheme, counts, switches)
		}
		cfg.OnProgress = func(p Progress) {
			if p.Format != "" {
				t.Errorf("%s heartbeat names a format: %q", scheme, p.Format)
			}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.StableFraction <= 0 {
			t.Fatalf("%s never took the stable path", scheme)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if res.AdaptiveDecisions != nil || res.AdaptiveSwitches != 0 || bytes.Contains(blob, []byte("Adaptive")) ||
			bytes.Contains(blob, []byte(`"Decision"`)) {
			t.Fatalf("%s result carries controller telemetry", scheme)
		}
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	t.Parallel()
	bad := tinyConfig(SchemeAdaptive)
	bad.AdaptCandidates = []string{"carrier-pigeon"}
	if _, err := Run(bad); err == nil {
		t.Fatal("unknown candidate format accepted")
	}
	dup := tinyConfig(SchemeAdaptive)
	dup.AdaptCandidates = []string{adaptive.FormatDense, adaptive.FormatDense}
	if _, err := Run(dup); err == nil {
		t.Fatal("duplicate candidate format accepted")
	}
	wide := tinyConfig(SchemeAdaptive)
	wide.AdaptMargin = 1.5
	if _, err := Run(wide); err == nil {
		t.Fatal("margin ≥ 1 accepted")
	}
	// Only exactly-zero knobs take the defaults; negatives are errors, not
	// silent coercions.
	neg := tinyConfig(SchemeAdaptive)
	neg.AdaptMargin = -0.1
	if _, err := Run(neg); err == nil {
		t.Fatal("negative margin accepted")
	}
	negDwell := tinyConfig(SchemeAdaptive)
	negDwell.AdaptDwell = -2
	if _, err := Run(negDwell); err == nil {
		t.Fatal("negative dwell accepted")
	}
}

func TestFabricSensitive(t *testing.T) {
	t.Parallel()
	multi := tinyConfig(SchemeAdaptive)
	if !multi.FabricSensitive() {
		t.Fatal("multi-candidate adaptive config must be fabric-sensitive")
	}
	single := tinyConfig(SchemeAdaptive)
	single.AdaptCandidates = []string{adaptive.FormatIndexList}
	if single.FabricSensitive() {
		t.Fatal("single-candidate adaptive config is fabric-independent")
	}
	static := tinyConfig("pactrain-ternary")
	if static.FabricSensitive() {
		t.Fatal("static schemes are never fabric-sensitive")
	}
}
