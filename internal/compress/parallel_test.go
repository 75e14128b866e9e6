package compress

import (
	"fmt"
	"testing"

	"pactrain/internal/collective"
	"pactrain/internal/par"
	"pactrain/internal/tensor"
)

// testGrad builds a deterministic gradient with repeated magnitudes (ties
// exercise the index tie-break) and exact negative mirrors.
func testGrad(n int, seed uint64) []float32 {
	rng := tensor.NewRNG(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.Float64()*2 - 1)
	}
	for i := 0; i+8 < n; i += 8 {
		v[i+3] = v[i]  // exact duplicate magnitude
		v[i+5] = -v[i] // |x| tie with opposite sign
	}
	return v
}

// withBudget runs f under the given kernel budget, restoring the old one.
func withBudget(budget int, f func()) {
	old := par.Budget()
	par.SetBudget(budget)
	defer par.SetBudget(old)
	f()
}

func TestTopKMatchesReferenceSort(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 17, 100, 4096} {
		v := testGrad(n, uint64(n)+3)
		for _, k := range []int{1, 2, n / 10, n / 2, n - 1, n} {
			if k < 1 || k > n {
				continue
			}
			got := topKIndices(v, k)
			want := fullSortTopK(v, k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: %d indices, want %d", n, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: index[%d] = %d, want %d", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSelectorScratchReuseIsStable(t *testing.T) {
	t.Parallel()
	var sel topKSelector
	v := testGrad(10000, 9)
	first := sel.topKIndices(v, 100)
	for round := 0; round < 3; round++ {
		got := sel.topKIndices(v, 100)
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("round %d: index[%d] = %d, want %d", round, i, got[i], first[i])
			}
		}
	}
}

// TestParallelKernelsBitExact pins the tentpole contract: every parallel
// kernel produces byte-identical output at any worker budget, because the
// chunked loops are elementwise (chunk boundaries cannot change any float)
// and the reductions preserve the scalar evaluation order.
func TestParallelKernelsBitExact(t *testing.T) {
	const n = par.MinWork*3 + 1234
	grad := testGrad(n, 42)

	mask := make([]int32, 0, n/2)
	for i := int32(0); i < n; i += 2 {
		mask = append(mask, i)
	}

	type kernel struct {
		name string
		run  func() any
	}
	kernels := []kernel{
		{"fp16-encode", func() any { return NewFP16().Encode(grad) }},
		{"topk-encode", func() any { return NewTopK(0.01).Encode(grad) }},
		{"dgc-encode", func() any {
			d := NewDGC(0.01, 0.9)
			var payloads []collective.SparsePayload
			for i := 0; i < 3; i++ { // momentum state evolves across calls
				payloads = append(payloads, d.Encode(grad))
			}
			return payloads
		}},
		{"topk-decodesum", func() any {
			p := NewTopK(0.05).Encode(grad)
			out := make([]float32, n)
			NewTopK(0.05).DecodeSum(p, out)
			return out
		}},
		{"thc-encode", func() any { return NewTHC(16).Encode(grad) }},
		{"maskcompact-roundtrip", func() any {
			mc := NewMaskCompact(false, 7)
			mc.SetMask(mask, n)
			payload := mc.Encode(grad)
			out := make([]float32, n)
			mc.Decode(payload, out)
			vals, idx := mc.EncodeSparse(grad, nil)
			return []any{payload, out, vals, idx}
		}},
	}

	for _, k := range kernels {
		var scalar, parallel any
		withBudget(1, func() { scalar = k.run() })
		withBudget(8, func() { parallel = k.run() })
		if fmt.Sprintf("%v", scalar) != fmt.Sprintf("%v", parallel) {
			t.Errorf("%s: budget-8 output differs from scalar", k.name)
		}
	}
}

func BenchmarkEncodeSparse(b *testing.B) {
	for _, n := range []int{64 << 10, 1024 << 10, 4096 << 10} {
		b.Run(fmt.Sprintf("n=%dk", n>>10), func(b *testing.B) {
			grad := testGrad(n, 5)
			mc := NewMaskCompact(true, 3)
			mask := make([]int32, 0, n/2)
			for i := int32(0); i < int32(n); i += 2 {
				mask = append(mask, i)
			}
			mc.SetMask(mask, n)
			b.SetBytes(int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals, idx := mc.EncodeSparse(grad, nil)
				_ = vals
				_ = idx
			}
		})
	}
}

func BenchmarkTopKEncode(b *testing.B) {
	grad := testGrad(2_500_000, 5)
	topk := NewTopK(0.01)
	b.SetBytes(int64(len(grad)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = topk.Encode(grad)
	}
}
