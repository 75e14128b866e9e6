package harness

import (
	"math"
	"strings"
	"testing"

	"pactrain/internal/core"
	"pactrain/internal/ddp"
	"pactrain/internal/netsim"
)

// TestMemoizedReplayMatchesLive pins the opCoster contract: on a
// time-invariant fabric, memoized pricing agrees with live per-op pricing to
// accumulation roundoff (the memo replays a duration computed at one launch
// time at other launch times — see opCoster's doc comment for why that is
// ulp-level, not exact).
func TestMemoizedReplayMatchesLive(t *testing.T) {
	t.Parallel()
	const racks, hosts = 4, 4
	topo := netsim.RackedTopology(netsim.RackedOptions{Racks: racks, HostsPerRack: hosts})
	buckets := []int{300_000, 300_000, 100_000}
	for _, scheme := range LargeScaleSchemes() {
		res := &core.Result{Scheme: scheme, CommLog: largeScaleLog(scheme, buckets, 6)}
		cfg := core.Config{
			World:      racks * hosts,
			BatchSize:  256,
			Compute:    largeScaleCompute(),
			Overlap:    ddp.OverlapBackward,
			Collective: "hierarchical",
			RankCompute: ddp.RankCompute{
				Multipliers: netsim.OneSlowRack(racks, hosts, 3),
			},
		}
		live := recording{cfg, res}.price(point{topo: topo})
		memo := recording{cfg, res}.price(point{topo: topo, memoize: true})
		if len(live) != len(memo) {
			t.Fatalf("%s: cum lengths differ: %d vs %d", scheme, len(live), len(memo))
		}
		for k := range live {
			if diff := math.Abs(live[k] - memo[k]); diff > 1e-9*math.Max(1, live[k]) {
				t.Fatalf("%s iter %d: live %v vs memoized %v (diff %g)",
					scheme, k, live[k], memo[k], diff)
			}
		}
	}
}

func TestRunLargeScaleQuick(t *testing.T) {
	t.Parallel()
	res, err := RunLargeScale(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.World != 1024 || res.Racks != 32 || res.HostsPerRack != 32 {
		t.Fatalf("quick grid sized %d ranks (%d×%d), want 1024 (32×32)",
			res.World, res.Racks, res.HostsPerRack)
	}
	if want := len(res.Schemes) * len(res.Severities); len(res.Cells) != want {
		t.Fatalf("%d cells, want %d", len(res.Cells), want)
	}
	for _, scheme := range res.Schemes {
		base, ok := res.Cell(scheme, 1)
		if !ok || base.IterSeconds <= 0 {
			t.Fatalf("%s: missing or non-positive uniform cell", scheme)
		}
		if base.Degradation != 1 {
			t.Fatalf("%s: uniform degradation %v, want exactly 1", scheme, base.Degradation)
		}
		prev := base.IterSeconds
		for _, sev := range res.Severities[1:] {
			c, ok := res.Cell(scheme, sev)
			if !ok {
				t.Fatalf("%s: missing severity %g", scheme, sev)
			}
			if c.IterSeconds < prev {
				t.Fatalf("%s: iteration time shrank as the slow rack worsened (%g× → %v)",
					scheme, sev, c.IterSeconds)
			}
			if c.Degradation < 1 {
				t.Fatalf("%s severity %g: degradation %v < 1", scheme, sev, c.Degradation)
			}
			prev = c.IterSeconds
		}
	}
	// The headline claims: compression wins on a uniform cluster, and the
	// slow rack hurts the compressed scheme relatively more (compute is a
	// larger share of its iteration).
	pac, _ := res.Cell("pactrain-ternary", 1)
	dense, _ := res.Cell("all-reduce", 1)
	if pac.IterSeconds >= dense.IterSeconds {
		t.Fatalf("PacTrain (%v) not faster than dense (%v) on the uniform cluster",
			pac.IterSeconds, dense.IterSeconds)
	}
	worst := res.Severities[len(res.Severities)-1]
	pacW, _ := res.Cell("pactrain-ternary", worst)
	denseW, _ := res.Cell("all-reduce", worst)
	if pacW.Degradation <= denseW.Degradation {
		t.Fatalf("expected compression to expose the slow rack: pactrain %v vs dense %v",
			pacW.Degradation, denseW.Degradation)
	}
	rendered := res.Render()
	for _, want := range []string{"1024 ranks", "PacTrain", "slow rack"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("rendered grid missing %q:\n%s", want, rendered)
		}
	}
}

// BenchmarkLargeScaleGrid prices the whole grid: quick is the 1,024-rank
// fabric, full the 4,096-rank one the README quotes a wall time for.
func BenchmarkLargeScaleGrid(b *testing.B) {
	for _, quick := range []bool{true, false} {
		name := "full"
		if quick {
			name = "quick"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunLargeScale(Options{Quick: quick})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) == 0 {
					b.Fatal("empty grid")
				}
			}
		})
	}
}
