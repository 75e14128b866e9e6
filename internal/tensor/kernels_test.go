package tensor

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// bitsEqual reports whether two tensors are byte-identical (exact float bit
// patterns, not approximate equality).
func bitsEqual(a, b *Tensor) bool {
	if !slices.Equal(a.Shape(), b.Shape()) {
		return false
	}
	for i := range a.data {
		if math.Float32bits(a.data[i]) != math.Float32bits(b.data[i]) {
			return false
		}
	}
	return true
}

// TestMatMulMatchesNaiveOnRaggedShapes holds every matmul variant to the
// naive triple loop, bit for bit, on shapes with ragged row counts and
// register-block remainder columns, with exact zeros in A so the a == 0 skip
// runs.
func TestMatMulMatchesNaiveOnRaggedShapes(t *testing.T) {
	rng := NewRNG(42)
	shapes := []struct{ m, k, n int }{
		{7, 5, 3},
		{67, 129, 31}, // n%4 != 0
		{128, 64, 64},
	}
	for _, s := range shapes {
		a := Randn(rng, 1, s.m, s.k)
		b := Randn(rng, 1, s.k, s.n)
		for i := 0; i < len(a.data); i += 5 {
			a.data[i] = 0
		}
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			checkMatMuls(t, a.data, b.data, s.m, s.k, s.n)
		})
	}
}

// TestMatMulIntoReusesDirtyBuffer pins that the Into kernels fully overwrite
// a dirty destination — required for scratch reuse across train steps.
func TestMatMulIntoReusesDirtyBuffer(t *testing.T) {
	rng := NewRNG(7)
	a := Randn(rng, 1, 9, 11)
	b := Randn(rng, 1, 11, 6)
	at := Transpose(a)
	cases := []struct {
		name string
		m, n int
		run  func(dst *Tensor)
	}{
		{"MatMulInto", 9, 6, func(dst *Tensor) { MatMulInto(dst, a, b) }},
		{"MatMulTransAInto", 9, 6, func(dst *Tensor) { MatMulTransAInto(dst, at, b) }},
		{"MatMulTransBInto", 9, 9, func(dst *Tensor) { MatMulTransBInto(dst, a, a) }},
		{"MatMulTransBHeldInto", 9, 9, func(dst *Tensor) { MatMulTransBHeldInto(dst, a, a, at) }},
	}
	for _, c := range cases {
		fresh := New(c.m, c.n)
		c.run(fresh)
		dirty := Full(float32(math.NaN()), c.m, c.n)
		c.run(dirty)
		if !bitsEqual(fresh, dirty) {
			t.Errorf("%s: dirty-buffer result differs from fresh-buffer result", c.name)
		}
	}
}

// TestConvLoweringMatchesNaive compares Im2Col and Col2Im, bit for bit, with
// nested loops over (row, channel, ky, kx): im2col tests every element against
// the padding, col2im scatters into a zeroed image in ascending (oy, ox, ky,
// kx) order. Kernels larger than the image and strides that skip pixels are in
// the sweep.
func TestConvLoweringMatchesNaive(t *testing.T) {
	rng := NewRNG(11)
	const n, c = 2, 3
	for _, k := range []int{1, 2, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2} {
				for _, hw := range [][2]int{{1, 1}, {2, 5}, {5, 4}, {7, 7}, {9, 6}} {
					h, w := hw[0], hw[1]
					if h+2*pad < k || w+2*pad < k {
						continue
					}
					outH, outW := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
					rows, rowLen := n*outH*outW, c*k*k
					x := FromSlice(fill(rng, n*c*h*w), n, c, h, w)
					wantCols := New(rows, rowLen)
					wantImg := New(n, c, h, w)
					cols := FromSlice(fill(rng, rows*rowLen), rows, rowLen)
					for r := 0; r < rows; r++ {
						im, oy, ox := r/(outH*outW), r/outW%outH, r%outW
						for ch := 0; ch < c; ch++ {
							for ky := 0; ky < k; ky++ {
								for kx := 0; kx < k; kx++ {
									iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
									if iy < 0 || iy >= h || ix < 0 || ix >= w {
										continue
									}
									col := r*rowLen + (ch*k+ky)*k + kx
									pix := ((im*c+ch)*h+iy)*w + ix
									wantCols.data[col] = x.data[pix]
									wantImg.data[pix] += cols.data[col]
								}
							}
						}
					}
					name := fmt.Sprintf("k%d s%d p%d %dx%d", k, stride, pad, h, w)
					sameBits(t, name+" im2col", Im2Col(x, k, k, stride, pad).data, wantCols.data)
					sameBits(t, name+" col2im", Col2Im(cols, n, c, h, w, k, k, stride, pad).data, wantImg.data)
				}
			}
		}
	}
}

// TestMatMulIntoShapePanicsIncludeShapes pins the satellite requirement that
// the Into matmul panics name the offending shapes.
func TestMatMulIntoShapePanicsIncludeShapes(t *testing.T) {
	cases := []struct {
		op  string
		run func()
	}{
		{"MatMulInto", func() { MatMulInto(New(2, 2), New(2, 3), New(4, 2)) }},
		{"MatMulTransAInto", func() { MatMulTransAInto(New(2, 2), New(3, 2), New(4, 2)) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(New(2, 2), New(2, 3), New(2, 4)) }},
		{"MatMulTransBHeldInto", func() { MatMulTransBHeldInto(New(2, 2), New(2, 3), New(2, 4), New(4, 2)) }},
		{"MatMulTransBHeldInto", func() { MatMulTransBHeldInto(New(2, 2), New(2, 3), New(2, 3), New(2, 3)) }},
		{"TransposeInto", func() { TransposeInto(New(2, 3), New(2, 3)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: expected panic", c.op)
					return
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, c.op) || !strings.Contains(msg, "[2 3]") && !strings.Contains(msg, "[3 2]") {
					t.Errorf("%s: panic %q does not report the offending shapes", c.op, msg)
				}
			}()
			c.run()
		}()
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := NewRNG(1)
	x := Randn(rng, 1, 256, 256)
	y := Randn(rng, 1, 256, 256)
	dst := New(256, 256)
	b.SetBytes(256 * 256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMulTransB256(b *testing.B) {
	rng := NewRNG(1)
	x := Randn(rng, 1, 256, 256)
	y := Randn(rng, 1, 256, 256)
	dst := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, x, y)
	}
}

// BenchmarkMatMulShapes times the three matmuls at product shapes: the MLP
// twin's first layer and its weight gradient, a ViT projection, one sample's
// ViT projection and attention-times-values (model width 48, head width 12), the
// ResNet18 twin's conv lowering (dcols, dW, and the forward cols × Wᵀ at two
// widths). Shapes are (m,k,n) of the product; GMAC/s = m·k·n per ns.
func BenchmarkMatMulShapes(b *testing.B) {
	for _, c := range []struct {
		op      string
		m, k, n int
	}{
		{"AB", 64, 768, 64}, {"AB", 136, 48, 96}, {"AB", 2048, 10, 90},
		{"AB", 17, 48, 48}, {"AB", 17, 17, 12},
		{"AtB", 768, 8, 64}, {"AtB", 10, 2048, 90},
		{"ABt", 2048, 90, 10}, {"ABt", 512, 180, 20},
	} {
		b.Run(fmt.Sprintf("%s/%dx%dx%d", c.op, c.m, c.k, c.n), func(b *testing.B) {
			rng := NewRNG(1)
			x, y, dst := Randn(rng, 1, c.m, c.k), Randn(rng, 1, c.k, c.n), New(c.m, c.n)
			run := func() { MatMulInto(dst, x, y) }
			switch c.op {
			case "AtB":
				x = Transpose(x)
				run = func() { MatMulTransAInto(dst, x, y) }
			case "ABt":
				y = Transpose(y)
				run = func() { MatMulTransBInto(dst, x, y) }
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(c.m*c.k*c.n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GMAC/s")
		})
	}
}

// BenchmarkRowWidth times MatMulInto at 17 rows and k = 48 (one ViT-twin
// sample's tokens and model width) for output widths 8 to 96: a width's cost
// per multiply-add shows how many add chains its row pass keeps in flight.
func BenchmarkRowWidth(b *testing.B) {
	const m, k = 17, 48
	rng := NewRNG(1)
	x := Randn(rng, 1, m, k)
	for n := 8; n <= 96; n += 4 {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			y, dst := Randn(rng, 1, k, n), New(m, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, x, y)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())*1e3/(float64(m*k*n)*float64(b.N)), "ps/MAC")
		})
	}
}

// BenchmarkMaxAbs scans one MLP-twin gradient bucket (53,898 floats).
func BenchmarkMaxAbs(b *testing.B) {
	x := Randn(NewRNG(1), 1, 53898)
	b.SetBytes(int64(4 * x.Len()))
	var sink float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += MaxAbs(x.Data())
	}
	_ = sink
}
