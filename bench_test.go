package pactrain

// This file carries one benchmark per table/figure of the paper's
// evaluation (DESIGN.md §8) plus micro-benchmarks of the primitives on the
// critical path. The figure benchmarks run the same harness code as
// cmd/pactrain-bench at reduced scale (the full-fidelity settings take
// minutes; `go run ./cmd/pactrain-bench` regenerates the paper-scale
// output); each reports the experiment's headline quantity as a custom
// metric.

import (
	"testing"

	"pactrain/internal/collective"
	"pactrain/internal/compress"
	"pactrain/internal/core"
	"pactrain/internal/data"
	"pactrain/internal/harness"
	"pactrain/internal/netsim"
	"pactrain/internal/nn"
	"pactrain/internal/tensor"
)

func benchOpts() harness.Options {
	return harness.Options{Quick: true, World: 4, Samples: 256, Seed: 2}
}

// BenchmarkTable1Properties regenerates Table 1 (method-property matrix).
func BenchmarkTable1Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.VerifyAgainstPaper(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3TTA regenerates Fig. 3 (relative TTA across bandwidths) and
// reports the PacTrain max speedup.
func BenchmarkFig3TTA(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.MaxSpeedup()
	}
	b.ReportMetric(speedup, "max_speedup_x")
}

// BenchmarkFig5Curves regenerates Fig. 5 (time-to-accuracy curves) and
// reports PacTrain's speedup over all-reduce.
func BenchmarkFig5Curves(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.SpeedupVsAllReduce
	}
	b.ReportMetric(speedup, "speedup_vs_allreduce_x")
}

// BenchmarkFig6PruningSweep regenerates Fig. 6 (pruning ratio vs final
// accuracy) and reports the accuracy drop at ratio 0.5.
func BenchmarkFig6PruningSweep(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if d, ok := res.AccuracyDrop(res.Models[0], 0.5); ok {
			drop = d
		}
	}
	b.ReportMetric(drop, "acc_drop_at_0.5")
}

// BenchmarkAblationMaskTracker sweeps the Mask Tracker stability window.
func BenchmarkAblationMaskTracker(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunAblationMT(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		frac = res.Rows[0].StableFraction
	}
	b.ReportMetric(frac, "compact_fraction_w1")
}

// BenchmarkAblationTernary compares pruning-only vs pruning+ternary.
func BenchmarkAblationTernary(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunAblationTernary(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Rows[0].PlainTTA / res.Rows[0].TernaryTTA
	}
	b.ReportMetric(gain, "ternary_gain_100mbps_x")
}

// BenchmarkAblationTopology compares Fig. 4 chained switches vs a flat
// switch at equal link speed.
func BenchmarkAblationTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunAblationTopo(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectivesGrid regenerates the collective-algorithm grid and
// reports the hierarchical-over-ring all-reduce speedup on the two-rack
// fabric.
func BenchmarkCollectivesGrid(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := harness.RunCollectives(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.HierarchicalSpeedup("all-reduce")
	}
	b.ReportMetric(speedup, "hier_vs_ring_x")
}

// --- Micro-benchmarks of the primitives on the critical path ---------------

// BenchmarkRingAllReduce8MiB measures the live collective data plane
// (rendezvous + summation) for a 2Mi-element bucket on 8 workers.
func BenchmarkRingAllReduce8MiB(b *testing.B) {
	topo := netsim.Fig4Topology(netsim.Fig4Options{BottleneckBps: netsim.Gbps})
	cluster := collective.NewCluster(8, netsim.NewFabric(topo))
	n := 2 << 20
	vecs := make([][]float32, 8)
	for r := range vecs {
		vecs[r] = make([]float32, n)
	}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		for r := 0; r < 8; r++ {
			go func(rank int) {
				cluster.AllReduce(rank, vecs[rank], vecs[rank], nil)
				done <- struct{}{}
			}(r)
		}
		for r := 0; r < 8; r++ {
			<-done
		}
	}
}

// BenchmarkCompressors measures Encode throughput of every dense scheme's
// codec, and of top-1% as training runs it (with error feedback), on a
// 1Mi-element gradient.
func BenchmarkCompressors(b *testing.B) {
	n := 1 << 20
	r := tensor.NewRNG(1)
	grad := make([]float32, n)
	for i := range grad {
		grad[i] = float32(r.NormFloat64())
	}
	for _, name := range []string{"fp32", "fp16", "terngrad", "qsgd", "thc", "topk-0.01"} {
		c, err := NewCompressor(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(n * 4))
			for i := 0; i < b.N; i++ {
				switch c := c.(type) {
				case compress.DenseCompressor:
					c.Encode(grad)
				case compress.SparseCompressor:
					c.Encode(grad)
				}
			}
		})
	}
}

// BenchmarkMaskCompact measures PacTrain's gather/scatter compaction at 50%
// sparsity — the hot loop of the compact path.
func BenchmarkMaskCompact(b *testing.B) {
	n := 1 << 20
	keep := make([]int32, 0, n/2)
	for i := 0; i < n; i += 2 {
		keep = append(keep, int32(i))
	}
	mc := compress.NewMaskCompact(false, 1)
	mc.SetMask(keep, n)
	grad := make([]float32, n)
	out := make([]float32, n)
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Decode(mc.Encode(grad), out)
	}
}

// BenchmarkTernarize measures the TernGrad quantization kernel.
func BenchmarkTernarize(b *testing.B) {
	n := 1 << 20
	r := tensor.NewRNG(1)
	grad := make([]float32, n)
	out := make([]float32, n)
	for i := range grad {
		grad[i] = float32(r.NormFloat64())
	}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress.Ternarize(r, grad, out)
	}
}

// BenchmarkConvForward measures the Conv2D layer on a lite-model-sized
// input, the compute kernel of the VGG/ResNet twins.
func BenchmarkConvForward(b *testing.B) {
	r := tensor.NewRNG(1)
	layer := nn.NewConv2D("conv", r, 8, 16, 3, 1, 1)
	x := tensor.Randn(r, 1, 8, 8, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.Forward(x, true)
	}
}

// BenchmarkConvBackward measures Conv2D's backward pass (weight and input
// gradients) at the ResNet18 twin's shapes: a 10→10 3×3 conv and the 10→20
// stride-2 conv that opens its second stage, batch 8 of 16×16 inputs.
func BenchmarkConvBackward(b *testing.B) {
	for _, c := range []struct {
		name           string
		out, k, stride int
	}{{"10to10-3x3", 10, 3, 1}, {"10to20-3x3-stride2", 20, 3, 2}} {
		b.Run(c.name, func(b *testing.B) {
			r := tensor.NewRNG(1)
			layer := nn.NewConv2D("conv", r, 10, c.out, c.k, c.stride, 1)
			x := tensor.Randn(r, 1, 8, 10, 16, 16)
			g := tensor.Randn(r, 1, layer.Forward(x, true).Shape()...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Backward(g)
			}
		})
	}
}

// BenchmarkTrainingIteration measures one full distributed training
// iteration (forward, backward, GSE, bucketed compact all-reduce, step)
// amortized over a short PacTrain run.
func BenchmarkTrainingIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig("MLP", "pactrain-ternary")
		cfg.World = 4
		cfg.Data = data.CIFAR10Like(128, 3)
		cfg.TestSamples = 32
		cfg.Epochs = 2
		cfg.BatchSize = 8
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Iterations)/res.WallSeconds, "iters/s")
	}
}
