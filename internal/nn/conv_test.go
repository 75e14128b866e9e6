package nn

import (
	"math"
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
	tensor.MatMulTransBInto(outMat, cols, w)
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

// checkConv runs Conv2D forward and backward on palette values drawn from
// data and compares the output, dx, the weight gradient and the bias gradient
// bit for bit with loweredConv. The layer first steps once on a larger batch
// of other values, so every buffer it reuses is dirty.
func checkConv(t *testing.T, n, c, h, w, f, k, stride, pad int, data []byte) {
	t.Helper()
	draw := func(mul, add int, shape ...int) *tensor.Tensor {
		v := tensor.New(shape...)
		for i := range v.Data() {
			v.Data()[i] = convPalette[data[(i*mul+add)%len(data)]]
		}
		return v
	}
	oh, ow := tensor.ConvOutSize(h, k, stride, pad), tensor.ConvOutSize(w, k, stride, pad)
	l := NewConv2D("c", tensor.NewRNG(1), c, f, k, stride, pad)
	l.Forward(draw(3, 1, n+1, c, h, w), true)
	l.Backward(draw(5, 2, n+1, f, oh, ow))

	x, grad := draw(1, 0, n, c, h, w), draw(7, 3, n, f, oh, ow)
	copy(l.Weight.W.Data(), draw(11, 5, f, c*k*k).Data())
	copy(l.Bias.W.Data(), draw(13, 7, f).Data())
	copy(l.Weight.Grad.Data(), draw(17, 11, f, c*k*k).Data())
	copy(l.Bias.Grad.Data(), draw(19, 13, f).Data())
	wg := append([]float32(nil), l.Weight.Grad.Data()...)
	bg := append([]float32(nil), l.Bias.Grad.Data()...)
	wantOut, wantDx := loweredConv(x, l.Weight.W, l.Bias.W, grad, k, stride, pad, wg, bg)

	sameConvBits(t, "output", l.Forward(x, true).Data(), wantOut.Data())
	sameConvBits(t, "dx", l.Backward(grad).Data(), wantDx.Data())
	sameConvBits(t, "weight gradient", l.Weight.Grad.Data(), wg)
	sameConvBits(t, "bias gradient", l.Bias.Grad.Data(), bg)
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
