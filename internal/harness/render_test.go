package harness

import (
	"crypto/sha256"
	"testing"

	"pactrain/internal/netsim"
)

// TestPinnedSparseGridRenders holds the six grid renderers to digests
// recorded at the commit before they shared one table renderer, on
// hand-built grids with the two cell states the quick experiments never
// produce: a missing cell ("-") and a run that never reached its target
// (">"-flagged).
func TestPinnedSparseGridRenders(t *testing.T) {
	t.Parallel()
	bw := 1 * netsim.Gbps
	reports := []Report{
		&Fig3Result{Models: []string{"A", "B"}, Schemes: []string{"all-reduce", "pactrain-ternary"}, Bandwidths: []float64{bw},
			Cells: []Fig3Cell{
				{Model: "A", Scheme: "all-reduce", BandwidthBps: bw, RelTTA: 1, Reached: true, Speedup: 1},
				{Model: "A", Scheme: "pactrain-ternary", BandwidthBps: bw, RelTTA: 0.5, Speedup: 2},
				{Model: "B", Scheme: "all-reduce", BandwidthBps: bw, RelTTA: 1, Reached: true, Speedup: 1},
			}},
		&Fig6Result{Models: []string{"A", "B"}, Ratios: []float64{0, 0.8},
			Points: []Fig6Point{{Model: "A", Ratio: 0, FinalAcc: 0.9}, {Model: "A", Ratio: 0.8, FinalAcc: 0.85}, {Model: "B", Ratio: 0, FinalAcc: 0.7}}},
		&StragglersResult{Model: "A", Schemes: []string{"all-reduce", "pactrain-ternary"}, Overlaps: []string{"none"},
			Severities: []float64{1, 2}, BandwidthBps: bw,
			Cells: []StragglerCell{
				{Scheme: "all-reduce", Overlap: "none", Severity: 1, TTASeconds: 10, Reached: true, Degradation: 1},
				{Scheme: "all-reduce", Overlap: "none", Severity: 2, TTASeconds: 18, Degradation: 1.8},
				{Scheme: "pactrain-ternary", Overlap: "none", Severity: 2, TTASeconds: 6, Reached: true, Degradation: 1.5},
			}},
		&CollectivesResult{Model: "A", Algorithms: []string{"ring", "hierarchical"}, Schemes: []string{"all-reduce", "fp16"},
			Bandwidths: []float64{bw}, EdgeBps: 10 * netsim.Gbps,
			Cells: []CollectivesCell{
				{Algorithm: "ring", Scheme: "all-reduce", BandwidthBps: bw, TTASeconds: 10, Reached: true, SpeedupVsRing: 1},
				{Algorithm: "ring", Scheme: "fp16", BandwidthBps: bw, TTASeconds: 7, SpeedupVsRing: 1},
				{Algorithm: "hierarchical", Scheme: "all-reduce", BandwidthBps: bw, TTASeconds: 5, Reached: true, SpeedupVsRing: 2},
			}},
		&AdaptiveExpResult{Model: "A", Formats: []string{"dense-fp32", "index-list"}, VarBWBandwidths: []float64{bw},
			TwoRackBandwidths: []float64{bw}, LatencySec: 5e-3, DipScale: 0.1,
			Cells: []AdaptiveCell{
				{Fabric: "varbw", Scheme: AdaptiveSchemeName, BandwidthBps: bw, TTASeconds: 4, Reached: true, Decisions: "index-list:3", Switches: 1},
				{Fabric: "varbw", Scheme: StaticSchemeName("dense-fp32"), BandwidthBps: bw, TTASeconds: 8, Reached: true},
				{Fabric: "varbw", Scheme: StaticSchemeName("index-list"), BandwidthBps: bw, TTASeconds: 9},
				{Fabric: "two-rack", Scheme: AdaptiveSchemeName, BandwidthBps: bw, TTASeconds: 12},
			}},
		&LargeScaleResult{Schemes: []string{"all-reduce", "pactrain-ternary"}, Severities: []float64{1, 4},
			Racks: 2, HostsPerRack: 2, World: 4,
			Cells: []LargeScaleCell{
				{Scheme: "all-reduce", Severity: 1, IterSeconds: 2, Degradation: 1},
				{Scheme: "all-reduce", Severity: 4, IterSeconds: 3, Degradation: 1.5},
				{Scheme: "pactrain-ternary", Severity: 1, IterSeconds: 1, Degradation: 1},
			}},
	}
	h := sha256.New()
	for _, rep := range reports {
		h.Write([]byte(rep.Render()))
	}
	checkDigest(t, "renders", h, "022d13ec57b2474bf8ceb12d77afb65c08b36e03c0c69d50f1c86729e06ac0e6")
}
