package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pactrain/internal/tensor"
)

// convPalette maps a byte to a float32: ±0, subnormals, ±Inf, x86's default
// NaN (the only NaN, so the hardware's choice between two NaN operands cannot
// show) and the extreme normals, then finite values that round at nearly every
// step. Bytes 10–39 are exact zeros, so gradients carry runs of them.
var convPalette = func() (p [256]float32) {
	specials := []uint32{0, 0x80000000, 1, 0x80000001, 0x007fffff, 0x7f800000, 0xff800000, 0xffc00000, 0x7f7fffff, 0x00800000}
	for i, bits := range specials {
		p[i] = math.Float32frombits(bits)
	}
	r := tensor.NewRNG(9)
	for i := 40; i < len(p); i++ {
		p[i] = float32(r.NormFloat64() * math.Pow(10, float64(i%5-2)))
	}
	return p
}()

// loweredConv is Conv2D as it was written before the direct kernels, kept as
// the oracle: out = Im2Col(x) × Wᵀ plus bias, the bias gradient summed over
// ascending rows into bg, dW = gmᵀ × cols added to wg, and dx = Col2Im(gm × W).
func loweredConv(x, w, b, grad *tensor.Tensor, k, stride, pad int, wg, bg []float32) (out, dx *tensor.Tensor) {
	n, c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	f, spatial := w.Dim(0), grad.Dim(2)*grad.Dim(3)
	cols := tensor.Im2Col(x, k, k, stride, pad)
	rows := cols.Dim(0)
	outMat := tensor.New(rows, f)
	tensor.MatMulTransBInto(outMat, cols, tensor.Transpose(w))
	out = tensor.New(grad.Shape()...)
	gm := tensor.New(rows, f)
	for r := 0; r < rows; r++ {
		img, s := r/spatial, r%spatial
		for fi := 0; fi < f; fi++ {
			out.Data()[(img*f+fi)*spatial+s] = outMat.Data()[r*f+fi] + b.Data()[fi]
			gm.Data()[r*f+fi] = grad.Data()[(img*f+fi)*spatial+s]
		}
	}
	for r := 0; r < rows; r++ {
		for fi, v := range gm.Data()[r*f : (r+1)*f] {
			bg[fi] += v
		}
	}
	dW := tensor.New(f, c*k*k)
	tensor.MatMulTransAInto(dW, gm, cols)
	tensor.AxpyInto(tensor.FromSlice(wg, f, c*k*k), 1, dW)
	dcols := tensor.New(rows, c*k*k)
	tensor.MatMulInto(dcols, gm, w)
	return out, tensor.Col2Im(dcols, n, c, h, wd, k, k, stride, pad)
}

func sameConvBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: element %d is %#08x (%v), want %#08x (%v)", what, i, g, got[i], w, want[i])
		}
	}
}

// checkConv runs checkConvCase on the weights drawn from data and on those
// weights pruned, each with every input finite as drawn, with one ±Inf or NaN
// in the input, and with one in the output gradient: the direct kernels leave
// out zero-weight terms only while both are finite.
func checkConv(t *testing.T, n, c, h, w, f, k, stride, pad int, data []byte) {
	t.Helper()
	for _, pruned := range []bool{false, true} {
		for special := range 3 {
			checkConvCase(t, n, c, h, w, f, k, stride, pad, data, pruned, special)
		}
	}
}

// checkConvCase runs Conv2D forward and backward on palette values drawn from
// data and compares the output, dx, the weight gradient and the bias gradient
// bit for bit with loweredConv. The layer first steps once on a larger batch
// of other values, so every buffer it reuses is dirty. With pruned, about half
// the weights are ±0, and so are one whole filter (its bias −0, which only a
// sum from +0 turns into +0) and one whole (channel, kernel position) column.
// Special 1 puts one ±Inf or NaN in the input, special 2 one in the gradient.
func checkConvCase(t *testing.T, n, c, h, w, f, k, stride, pad int, data []byte, pruned bool, special int) {
	t.Helper()
	draw := func(mul, add int, shape ...int) *tensor.Tensor {
		v := tensor.New(shape...)
		for i := range v.Data() {
			v.Data()[i] = convPalette[data[(i*mul+add)%len(data)]]
		}
		return v
	}
	at := func(i int) byte { return data[i%len(data)] }
	oh, ow := tensor.ConvOutSize(h, k, stride, pad), tensor.ConvOutSize(w, k, stride, pad)
	l := NewConv2D("c", tensor.NewRNG(1), c, f, k, stride, pad)
	l.Forward(draw(3, 1, n+1, c, h, w), true)
	l.Backward(draw(5, 2, n+1, f, oh, ow))

	x, grad := draw(1, 0, n, c, h, w), draw(7, 3, n, f, oh, ow)
	copy(l.Weight.W.Data(), draw(11, 5, f, c*k*k).Data())
	copy(l.Bias.W.Data(), draw(13, 7, f).Data())
	copy(l.Weight.Grad.Data(), draw(17, 11, f, c*k*k).Data())
	copy(l.Bias.Grad.Data(), draw(19, 13, f).Data())
	if pruned {
		wd, p := l.Weight.W.Data(), c*k*k
		zero := func(i int) { wd[i] = convPalette[at(i*5+3)&1] } // +0 or −0
		for i := range wd {
			if at(i*3+1)&2 == 0 {
				zero(i)
			}
		}
		if f > 1 {
			fz := int(at(29)) % f
			for q := range p {
				zero(fz*p + q)
			}
			l.Bias.W.Data()[fz] = convPalette[1]
		}
		if p > 1 {
			ck := int(at(31)) % p
			for fi := range f {
				zero(fi*p + ck)
			}
		}
	}
	if special > 0 {
		v := []*tensor.Tensor{x, grad}[special-1].Data()
		v[int(at(37))*31%len(v)] = convPalette[5+int(at(41))%3] // +Inf, −Inf or NaN
	}
	wg := append([]float32(nil), l.Weight.Grad.Data()...)
	bg := append([]float32(nil), l.Bias.Grad.Data()...)
	wantOut, wantDx := loweredConv(x, l.Weight.W, l.Bias.W, grad, k, stride, pad, wg, bg)

	what := fmt.Sprintf("pruned %v, special %d:", pruned, special)
	sameConvBits(t, what+" output", l.Forward(x, true).Data(), wantOut.Data())
	sameConvBits(t, what+" dx", l.Backward(grad).Data(), wantDx.Data())
	sameConvBits(t, what+" weight gradient", l.Weight.Grad.Data(), wg)
	sameConvBits(t, what+" bias gradient", l.Bias.Grad.Data(), bg)
}

// TestConvMatchesLowered sweeps the geometries of every conv twin and the
// fuzzer's kernel, stride and padding set.
func TestConvMatchesLowered(t *testing.T) {
	// Any palette value, then only zeros and finite values: the input
	// gradient leaves out zero terms by a lane mask only when a weight is not
	// finite.
	data, finite := make([]byte, 251), make([]byte, 251)
	r := tensor.NewRNG(5)
	for i := range data {
		data[i], finite[i] = byte(r.Intn(256)), byte(10+r.Intn(246))
	}
	for _, data := range [][]byte{data, finite} {
		for _, g := range [][8]int{ // n, c, h, w, f, k, stride, pad
			{8, 3, 16, 16, 10, 3, 1, 1}, {8, 10, 16, 16, 10, 3, 1, 1}, {8, 10, 16, 16, 20, 3, 2, 1},
			{8, 10, 16, 16, 20, 1, 2, 0}, {8, 20, 8, 8, 20, 3, 1, 1}, {2, 16, 4, 4, 32, 3, 1, 1},
			{1, 1, 1, 1, 1, 1, 1, 0}, {2, 2, 5, 7, 3, 4, 4, 2}, {3, 2, 6, 9, 9, 3, 2, 2}, {2, 3, 3, 70, 5, 1, 1, 1},
		} {
			checkConv(t, g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7], data)
		}
	}
}

// TestConvReusedAcrossBatchSizes pins the padded buffers' clear-once rule: one
// Conv serves the evaluator's chunks of 200 test samples, 64 then 8, and then
// 64 again, on weights about half ±0, the first call with an Inf in the input
// and a NaN in the gradient; every output and gradient equals a fresh Conv's
// bit for bit.
func TestConvReusedAcrossBatchSizes(t *testing.T) {
	r := tensor.NewRNG(46)
	for _, geo := range [][6]int{{10, 16, 10, 3, 1, 1}, {10, 16, 20, 3, 2, 1}, {10, 16, 20, 1, 2, 0}} { // c, size, f, k, stride, pad
		c, hw, f, k, s, pad := geo[0], geo[1], geo[2], geo[3], geo[4], geo[5]
		oh := tensor.ConvOutSize(hw, k, s, pad)
		w, bias := tensor.Randn(r, 1, f, c*k*k), tensor.Randn(r, 1, f)
		for i := range w.Data() {
			if r.Intn(2) == 0 {
				w.Data()[i] = 0
			}
		}
		var reused *tensor.Conv
		for step, n := range []int{64, 8, 64} {
			x, grad := tensor.Randn(r, 1, n, c, hw, hw), tensor.Randn(r, 1, n, f, oh, oh)
			if step == 0 {
				x.Data()[5], grad.Data()[7] = float32(math.Inf(1)), float32(math.NaN())
			}
			run := func(g *tensor.Conv) []*tensor.Tensor {
				out, dW, dx := tensor.New(n, f, oh, oh), tensor.New(f, c*k*k), tensor.New(n, c, hw, hw)
				g.Forward(out, x, w, bias)
				g.Backward(dW, dx, grad, w)
				return []*tensor.Tensor{out, dW, dx}
			}
			reused = tensor.ConvFor(reused, x, f, k, k, s, pad)
			got, want := run(reused), run(tensor.ConvFor(nil, x, f, k, k, s, pad))
			for i, what := range []string{"output", "weight gradient", "dx"} {
				sameConvBits(t, fmt.Sprintf("%v, batch %d (call %d): %s", geo, n, step, what), got[i].Data(), want[i].Data())
			}
		}
	}
}

// FuzzConvMatchesLowered feeds checkConv kernels {1,3,4}, strides {1,2,4},
// pads {0,1,2}, widths 1…70 and palette values chosen by the fuzzer.
func FuzzConvMatchesLowered(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(1), uint8(15), uint8(15), uint8(2), uint8(9), []byte{40, 0, 41, 1, 7, 5, 6, 3})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(15), uint8(7), uint8(3), uint8(19), []byte("stride two, dilated gradient"))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(69), uint8(3), uint8(0), uint8(0), []byte{10, 11, 12, 200})
	f.Fuzz(func(t *testing.T, kb, sb, pb, wb, hb, cb, fb uint8, data []byte) {
		k, stride, pad := []int{1, 3, 4}[kb%3], []int{1, 2, 4}[sb%3], int(pb%3)
		w, h, c, nf := 1+int(wb)%70, 1+int(hb)%9, 1+int(cb)%4, 1+int(fb)%24
		if h+2*pad < k || w+2*pad < k {
			return
		}
		if len(data) == 0 {
			data = []byte{0}
		}
		checkConv(t, 2, c, h, w, nf, k, stride, pad, data)
	})
}

// TestPatchEmbedConvMatchesLowered holds PatchEmbed, whose projection runs on
// tensor.Conv, to loweredConv bit for bit: the output, the input gradient
// with and without dropInputGrad, and all four parameter gradients, with the
// tokens permuted between the layer's (N, T+1, D) and the convolution's
// (N, D, T) in the test. D = 13 is not a multiple of 8 and N = 3; about half
// the weights are ±0, one whole row among them (its bias −0); the image is
// finite or holds one NaN, +Inf or −Inf pixel. The layer first steps on a
// larger batch, so every buffer it reuses is dirty.
func TestPatchEmbedConvMatchesLowered(t *testing.T) {
	const n, c, h, w, ps, d = 3, 3, 8, 12, 4, 13
	const tokens = (h / ps) * (w / ps)
	for _, special := range []float32{0, convPalette[7], convPalette[5], convPalette[6]} { // none, NaN, +Inf, −Inf
		for _, dropDx := range []bool{false, true} {
			r := tensor.NewRNG(49)
			draw := func(shape ...int) *tensor.Tensor {
				v := tensor.New(shape...)
				for i := range v.Data() {
					v.Data()[i] = convPalette[10+r.Intn(246)] // an exact zero or a finite value
				}
				return v
			}
			l := NewPatchEmbed("pe", r, c, h, w, ps, d)
			if dropDx {
				l.dropInputGrad()
			}
			l.Forward(draw(n+1, c, h, w), true)
			l.Backward(draw(n+1, tokens+1, d))

			x, grad := draw(n, c, h, w), draw(n, tokens+1, d)
			if special != 0 {
				x.Data()[r.Intn(x.Len())] = special
			}
			for _, p := range l.Params() {
				copy(p.W.Data(), draw(p.W.Shape()...).Data())
				copy(p.Grad.Data(), draw(p.Grad.Shape()...).Data())
			}
			wd, row := l.Proj.W.Data(), c*ps*ps
			for i := range wd {
				if r.Intn(2) == 0 || i/row == 5 {
					wd[i] = convPalette[r.Intn(2)] // +0 or −0
				}
			}
			l.Bias.W.Data()[5] = convPalette[1]

			// The oracle's gradient is (N, D, T); its output comes back (N, D, T).
			gradConv := tensor.New(n, d, h/ps, w/ps)
			for s := range n {
				for tk := range tokens {
					for j := range d {
						gradConv.Data()[(s*d+j)*tokens+tk] = grad.Data()[(s*(tokens+1)+tk+1)*d+j]
					}
				}
			}
			wg := append([]float32(nil), l.Proj.Grad.Data()...)
			bg := append([]float32(nil), l.Bias.Grad.Data()...)
			cg := append([]float32(nil), l.Cls.Grad.Data()...)
			eg := append([]float32(nil), l.PosEmb.Grad.Data()...)
			outConv, wantDx := loweredConv(x, l.Proj.W, l.Bias.W, gradConv, ps, ps, 0, wg, bg)
			want := make([]float32, n*(tokens+1)*d)
			cls, pos := l.Cls.W.Data(), l.PosEmb.W.Data()
			for s := range n {
				for tk := range tokens + 1 {
					for j := range d {
						i := (s*(tokens+1)+tk)*d + j
						if tk == 0 {
							want[i] = cls[j] + pos[j]
							cg[j] += grad.Data()[i]
						} else {
							want[i] = outConv.Data()[(s*d+j)*tokens+tk-1] + pos[tk*d+j]
						}
						eg[tk*d+j] += grad.Data()[i]
					}
				}
			}

			what := fmt.Sprintf("special %v, dropInputGrad %v:", special, dropDx)
			sameConvBits(t, what+" output", l.Forward(x, true).Data(), want)
			dx := l.Backward(grad)
			if dropDx {
				if dx != nil {
					t.Fatalf("%s Backward returned an input gradient", what)
				}
			} else {
				sameConvBits(t, what+" dx", dx.Data(), wantDx.Data())
			}
			sameConvBits(t, what+" projection gradient", l.Proj.Grad.Data(), wg)
			sameConvBits(t, what+" bias gradient", l.Bias.Grad.Data(), bg)
			sameConvBits(t, what+" class-token gradient", l.Cls.Grad.Data(), cg)
			sameConvBits(t, what+" position gradient", l.PosEmb.Grad.Data(), eg)
		}
	}
}

// TestPatchEmbedRejectsWrongInput pins PatchEmbed's input check: an input
// that is not (N, C, H, W) with the layer's C channels and T patches panics
// with a message naming its shape, before the convolution could read the
// weights at the wrong stride.
func TestPatchEmbedRejectsWrongInput(t *testing.T) {
	l := NewPatchEmbed("pe", tensor.NewRNG(1), 3, 8, 8, 4, 6) // T = 4
	l.Forward(tensor.New(2, 3, 8, 8), true)
	for _, shape := range [][]int{{2, 3, 64}, {2, 1, 8, 8}, {2, 4, 8, 8}, {2, 3, 8, 12}, {2, 3, 4, 4}, {2, 3, 8, 8, 1}} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "PatchEmbed") || !strings.Contains(msg, fmt.Sprint(shape)) {
					t.Errorf("input %v: panic %q, want one naming PatchEmbed and the shape", shape, msg)
				}
			}()
			l.Forward(tensor.New(shape...), true)
		}()
	}
}
