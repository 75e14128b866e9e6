package compress

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"pactrain/internal/tensor"
)

// fullSortTopK is the reference selection, written without any of the
// package's helpers: every index sorted by (|v| descending, index ascending)
// with NaN magnitudes above every number, the first k kept, ascending.
func fullSortTopK(v []float32, k int) []int32 {
	key := func(i int32) uint32 { return math.Float32bits(v[i]) & 0x7fffffff }
	idx := make([]int32, len(v))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(key(b), key(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	out := slices.Clone(idx[:k])
	slices.Sort(out)
	return out
}

var nan32 = float32(math.NaN())

// topKPalette holds the values selection must not trip over: both zeros,
// denormals, infinities, NaN, and a few ordinary magnitudes with both signs so
// that ties are everywhere.
var topKPalette = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 1.5, -1.5, 2, 0.5,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), nan32, -nan32,
}

// Shapes of fuzzVector.
const (
	shapePalette     = iota // topKPalette entries picked by the data bytes
	shapeRawBits            // data bytes read as float32 bit patterns
	shapeGaussian           // dense, distinct magnitudes
	shapeHalfSparse         // Gaussian with every other run of coordinates zero
	shapeStridePeaks        // uniform [0, 1) with one coordinate per stride lifted by 100
	shapeFewLevels          // four magnitudes: ties straddle any threshold
	shapeOneDigit           // magnitudes in [1, 1.12): one top digit holds them all
	shapeCount
)

// fuzzMaxN bounds the fuzzed input length.
const fuzzMaxN = 1 << 14

// fuzzVector builds the n-element input a fuzz case describes.
func fuzzVector(n int, shape uint8, data []byte) []float32 {
	if len(data) == 0 {
		data = []byte{0}
	}
	at := func(i int) byte { return data[i%len(data)] }
	rng := tensor.NewRNG(uint64(at(0))<<8 | uint64(at(1)))
	stride := max(n/1024, 1)
	v := make([]float32, n)
	for i := range v {
		switch shape % shapeCount {
		case shapePalette:
			v[i] = topKPalette[int(at(i))%len(topKPalette)]
		case shapeRawBits:
			v[i] = math.Float32frombits(uint32(at(4*i)) | uint32(at(4*i+1))<<8 |
				uint32(at(4*i+2))<<16 | uint32(at(4*i+3))<<24)
		case shapeGaussian:
			v[i] = float32(rng.NormFloat64())
		case shapeHalfSparse:
			if x := float32(rng.NormFloat64()); (i/int(1+at(2)%7))%2 == 0 {
				v[i] = x
			}
		case shapeStridePeaks:
			// The lifted coordinate sits at a hashed offset inside its
			// stride, so the peaks follow no period of v.
			v[i] = float32(rng.Float64())
			if j := i / stride; i == j*stride+int(uint32(j)*2654435761>>8)%stride {
				v[i] += 100
			}
		case shapeFewLevels:
			v[i] = float32(1+int(at(i))%4) * float32(1-2*(i%2))
		case shapeOneDigit:
			v[i] = float32(1+rng.Float64()/9) * float32(1-2*(i%2))
		}
	}
	return v
}

func checkTopK(t *testing.T, v []float32, k int) {
	t.Helper()
	want := fullSortTopK(v, k)
	var sel topKSelector
	for round := 0; round < 2; round++ { // the second round reuses the scratch
		if got := sel.topKIndices(v, k); !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d round %d: selection differs from the full sort\n got %v\nwant %v",
				len(v), k, round, head(got), head(want))
		}
	}
}

func head(idx []int32) []int32 { return idx[:min(len(idx), 16)] }

// FuzzTopKMatchesFullSort checks that threshold-then-filter selection returns
// the index set of a full sort whatever the input. The seed corpus under
// testdata holds the named edges — all-zero, all-equal, ties straddling the
// threshold, k of 1, n−1 and n, n of 1, ±0, denormals, ±Inf, NaN — and the
// radix ones: every magnitude inside one top digit, ties at the threshold
// with more of them than k leaves room for, NaN and ±Inf sharing the
// threshold's digit.
func FuzzTopKMatchesFullSort(f *testing.F) {
	f.Add(uint16(9999), uint16(99), uint8(shapeGaussian), []byte("dense gradient, one percent"))
	f.Add(uint16(16), uint16(3), uint8(shapePalette), []byte{0, 1, 2, 3, 12, 13, 14})
	f.Fuzz(func(t *testing.T, nb, kb uint16, shape uint8, data []byte) {
		n := 1 + int(nb)%fuzzMaxN
		k := 1 + int(kb)%n
		checkTopK(t, fuzzVector(n, shape, data), k)
	})
}

// TestTopKNamedInputs holds the selection to the full sort on named inputs:
// a dense gradient at 1% and 10%, a half-sparse one, one large peak per
// stride, an all-zero input, k beyond the non-zeros of a sparse input, a
// short input and a dense k.
func TestTopKNamedInputs(t *testing.T) {
	const n = fuzzMaxN
	dense := fuzzVector(n, shapeGaussian, []byte{7, 7})
	eighth := make([]float32, n)
	for i := 0; i < n; i += 8 {
		eighth[i] = dense[i]
	}
	for _, tc := range []struct {
		name string
		v    []float32
		k    int
	}{
		{"dense, 1%", dense, n / 100},
		{"dense, 10%", dense, n / 10},
		{"half-sparse, 10%", fuzzVector(n, shapeHalfSparse, []byte{7, 7, 0}), n / 10},
		{"strided peaks", fuzzVector(n, shapeStridePeaks, []byte{3, 1}), n / 4},
		{"all zero", make([]float32, n), n / 100},
		{"k beyond the non-zeros of a sparse input", eighth, n / 4},
		{"n below 4,096", dense[:4095], 40},
		{"dense k", dense, n/2 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) { checkTopK(t, tc.v, tc.k) })
	}
}

// TestTopKRanksNaNFirst pins the one behaviour chosen for a diverged
// gradient: NaN magnitudes rank above every number, ties (NaNs of one payload
// included) break toward the lower index, and inputs without a NaN select as
// they always did.
func TestTopKRanksNaNFirst(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, tc := range []struct {
		v    []float32
		k    int
		want []int32
	}{
		{[]float32{1, nan32, 3, -2}, 1, []int32{1}},
		{[]float32{1, nan32, 3, -2}, 2, []int32{1, 2}},
		{[]float32{inf, 5, -nan32, -inf}, 2, []int32{0, 2}},
		{[]float32{nan32, nan32, nan32}, 2, []int32{0, 1}},
		{[]float32{0, -2, 2, 1}, 1, []int32{1}},
		{[]float32{0, -2, 2, 1}, 3, []int32{1, 2, 3}},
	} {
		if got := topKIndices(tc.v, tc.k); !slices.Equal(got, tc.want) {
			t.Errorf("top %d of %v = %v, want %v", tc.k, tc.v, got, tc.want)
		}
	}
}

func BenchmarkTopKSelect(b *testing.B) {
	const n = 200_000
	for _, shape := range []struct {
		name string
		id   uint8
	}{{"dense", shapeGaussian}, {"half-sparse", shapeHalfSparse}} {
		v := fuzzVector(n, shape.id, []byte{1, 2, 3})
		for _, pct := range []int{1, 10} {
			b.Run(fmt.Sprintf("%s/%d%%", shape.name, pct), func(b *testing.B) {
				var sel topKSelector
				for i := 0; i < b.N; i++ {
					sel.topKIndices(v, n*pct/100)
				}
			})
		}
	}
}

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

func BenchmarkTopKEncode(b *testing.B) {
	grad := testGrad(2_500_000, 5)
	topk := NewTopK(0.01)
	b.SetBytes(int64(len(grad)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = topk.Encode(grad)
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
