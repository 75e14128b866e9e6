package tensor

import (
	"fmt"
	"math"
)

// Conv is a direct 2-D convolution at one geometry: F filters of KH×KW, weights
// (F, P) with P = C·KH·KW, over (N, C, H, W) inputs. Forward and both
// gradients read a zero-padded copy of the input or of the output gradient at
// per-term offsets, with no column matrix, and round every element as the
// lowering (Im2Col, the matmuls, Col2Im) rounds it (DESIGN.md §12).
type Conv struct {
	C, H, W, F, KH, KW, Stride, Pad, OutH, OutW int

	// The padded input is Stride² phases of hq×wq, phase (py, px) holding the
	// pixels (y, x) with y%Stride = py, x%Stride = px, so every term's lanes,
	// output positions on a grid wq wide, are contiguous. xoff maps term
	// p = (c, ky, kx) to its offset in one image (xn floats), zeros up to a
	// multiple of 8 terms.
	hq, wq, xn int
	xoff       []int32

	// The padded output gradient is hg×wg per filter, output (0, 0) at
	// (gtop, gleft); the input gradient's pixels go by stride phase.
	hg, wg, gtop, gleft int
	phases              []convPhase

	// The padded input (kept for Backward), the padded output gradient, and
	// its rows (img, oy, ox) of F columns with zeros up to a multiple of 8.
	// Each is zeroed only when it grows (padded): every call overwrites the
	// same interior positions, and the padding between them is never written.
	xp, gp, gm []float32

	// The live terms, rebuilt from the weights once per call. The forward's
	// list f, fw and foff from fend[f] to fend[f+1], is filter f's nonzero
	// weights and their xoff offsets in ascending term order. The input
	// gradient's list l = (phase, kernel position, channel), gw and goff from
	// gend[l] to gend[l+1], is the filters whose weight there is nonzero, in
	// ascending order, with their padded-gradient offsets.
	fw, gw     []float32
	foff, goff []int32
	fend, gend []int

	// xFinite records that the last Forward's input was finite, so Backward's
	// weight gradient can add its ±0 gradient terms unmasked.
	xFinite bool
}

// convPhase is the input-gradient pixels (a + Stride·u, b + Stride·v), u < hu,
// v < wv: the kernel positions ky·KW + kx that reach them, descending, and
// per position and filter the padded-gradient offset that pixel (a, b) reads.
type convPhase struct {
	a, b, hu, wv int
	kk           []int
	off          []int32
}

// A grid is rounded up to whole 32-lane tiles, whose four sums in flight keep
// the adders busy where one 8-lane sum would wait on itself; convSlack floats
// after each padded buffer hold the lanes past the last plane.
const convSlack = 32

func gridLen(n int) int { return (n + 31) &^ 31 }

// ConvFor returns g when it already has x's geometry and a new Conv for x
// otherwise, so a layer builds its offset tables once.
func ConvFor(g *Conv, x *Tensor, f, kh, kw, stride, pad int) *Conv {
	c, h, w, s := x.shape[1], x.shape[2], x.shape[3], stride
	if g != nil && g.C == c && g.H == h && g.W == w {
		return g
	}
	if h+2*pad < kh || w+2*pad < kw {
		panic(fmt.Sprintf("tensor: %dx%d kernel over a %dx%d input padded by %d", kh, kw, h, w, pad))
	}
	g = &Conv{C: c, H: h, W: w, F: f, KH: kh, KW: kw, Stride: s, Pad: pad,
		OutH: ConvOutSize(h, kh, s, pad), OutW: ConvOutSize(w, kw, s, pad),
		hq: (h + 2*pad + s - 1) / s, wq: (w + 2*pad + s - 1) / s,
		gtop: max(0, (kh-1-pad+s-1)/s), gleft: max(0, (kw-1-pad+s-1)/s),
		xoff: make([]int32, (c*kh*kw+7)&^7)}
	g.xn = c * s * s * g.hq * g.wq
	for p := range c * kh * kw {
		ch, ky, kx := p/(kh*kw), p/kw%kh, p%kw
		g.xoff[p] = int32(((ch*s+ky%s)*s+kx%s)*g.hq*g.wq + ky/s*g.wq + kx/s)
	}
	// Pixel row a + s·u meets kernel row ky when s divides a+pad−ky, at
	// output row u + (a+pad−ky)/s, gradient row u + (a+pad−ky)/s + gtop.
	g.hg = g.gtop + (h+s-1)/s + (s-1+pad)/s
	g.wg = g.gleft + (w+s-1)/s + (s-1+pad)/s
	for ab := range min(s, h) * min(s, w) {
		a, b := ab/min(s, w), ab%min(s, w)
		ph := convPhase{a: a, b: b, hu: (h - a + s - 1) / s, wv: (w - b + s - 1) / s}
		for k := kh*kw - 1; k >= 0; k-- {
			dy, dx := a+pad-k/kw, b+pad-k%kw
			if dy%s == 0 && dx%s == 0 {
				ph.kk = append(ph.kk, k)
				for fi := range f {
					ph.off = append(ph.off, int32((fi*g.hg+dy/s+g.gtop)*g.wg+dx/s+g.gleft))
				}
			}
		}
		g.phases = append(g.phases, ph)
	}
	p, kj := c*kh*kw, 0
	for _, ph := range g.phases {
		kj += len(ph.kk)
	}
	g.fw, g.foff, g.fend = make([]float32, f*p), make([]int32, f*p), make([]int, f+1)
	g.gw, g.goff, g.gend = make([]float32, kj*c*f), make([]int32, kj*c*f), make([]int, kj*c+1)
	return g
}

// padded returns buf with n floats: new zeros when n is past its capacity,
// and otherwise the storage as the last call left it.
func padded(buf []float32, n int) []float32 {
	if n > cap(buf) {
		return make([]float32, n)
	}
	return buf[:n]
}

// live reports whether v is not ±0, as 1 or 0 and without a branch, since
// half the weights of a pruned layer are zeros in no order.
func live(v float32) int {
	u := math.Float32bits(v) << 1
	return int((u | -u) >> 31)
}

// Forward writes out (N, F, OutH, OutW) = x ⊛ w + bias and keeps the padded x
// for Backward: element (img, f, oy, ox) sums w[f,p]·x̂ over ascending p from
// +0, padding terms included, then adds bias[f], as cols × Wᵀ plus bias did.
// When x is finite, the terms of ±0 weights are left out: each would add a ±0
// product, which a sum from +0 absorbs (DESIGN.md §12).
func (g *Conv) Forward(out, x, w, bias *Tensor) {
	n, s, plane := x.shape[0], g.Stride, g.hq*g.wq
	g.xp = padded(g.xp, n*g.xn+convSlack)
	for ic := range n * g.C { // input plane ic = img·C + ch
		src := x.data[ic*g.H*g.W : (ic+1)*g.H*g.W]
		for py := range s {
			iy0 := (py - g.Pad%s + s) % s // the first row in phase py
			for px := range s {
				ix0 := (px - g.Pad%s + s) % s // the first column in phase px
				at := ((ic*s+py)*s+px)*plane + (iy0+g.Pad)/s*g.wq + (ix0+g.Pad)/s
				for iy := iy0; iy < g.H; iy, at = iy+s, at+g.wq {
					row := src[iy*g.W : (iy+1)*g.W]
					if s == 1 {
						copy(g.xp[at:], row)
						continue
					}
					dst := g.xp[at:]
					for ix, j := ix0, 0; ix < g.W; ix, j = ix+s, j+1 {
						dst[j] = row[ix]
					}
				}
			}
		}
	}
	// With a non-finite input a ±0 weight's term may be NaN (0·Inf), so
	// every term is kept.
	p, spatial, keep, k := g.C*g.KH*g.KW, g.OutH*g.OutW, 0, 0
	if g.xFinite = finite(x.data); !g.xFinite {
		keep = 1
	}
	for f := range g.F {
		for q, v := range w.data[f*p : (f+1)*p] {
			g.fw[k], g.foff[k] = v, g.xoff[q]
			k += live(v) | keep
		}
		g.fend[f+1] = k
	}
	row := getScratch(gridLen((g.OutH-1)*g.wq + g.OutW))
	for img := range n {
		xi := g.xp[img*g.xn:]
		for f := range g.F {
			lo, hi := g.fend[f], g.fend[f+1]
			convRow(row, g.fw[lo:hi], xi, g.foff[lo:hi], false, false, bias.data[f])
			o := out.data[(img*g.F+f)*spatial:]
			for oy := range g.OutH {
				copy(o[oy*g.OutW:(oy+1)*g.OutW], row[oy*g.wq:])
			}
		}
	}
	putScratch(row)
}

// Backward writes the weight gradient dW (F, P), summed from +0, and unless dx
// is nil the input gradient dx (N, C, H, W), for the output gradient grad of
// the last Forward with weights w.
func (g *Conv) Backward(dW, dx, grad, w *Tensor) {
	n, p, spatial, fs := grad.shape[0], g.C*g.KH*g.KW, g.OutH*g.OutW, (g.F+7)&^7
	g.gm = padded(g.gm, n*spatial*fs)
	for img := range n {
		for f := range g.F {
			rows := g.gm[img*spatial*fs+f:]
			for r, v := range grad.data[(img*g.F+f)*spatial : (img*g.F+f+1)*spatial] {
				rows[r*fs] = v
			}
		}
	}
	// dWᵀ, rows of F rounded up to 8, goes in blocks of 8 terms of 8 filters,
	// each element summed over ascending (img, oy, ox) from +0 with ±0
	// gradient terms left out, as gmᵀ × cols summed it. Leaving one out
	// matters only against a ±Inf or NaN input: otherwise its product is ±0,
	// which the sum absorbs, so the lanes mask only a non-finite input.
	dwt := getScratch(len(g.xoff) * fs)
	clear(dwt)
	for i := range fs / 8 * len(g.xoff) / 8 {
		f0, p0 := i%(fs/8)*8, i/(fs/8)*8
		for img := range n {
			convWeight(dwt[p0*fs+f0:], fs, g.xp[img*g.xn:], g.xoff[p0:p0+8], g.gm[img*spatial*fs+f0:], fs, g.OutH, g.OutW, g.wq, !g.xFinite)
		}
	}
	for f := range g.F {
		for q := range p {
			dW.data[f*p+q] = dwt[q*fs+f]
		}
	}
	putScratch(dwt)
	if dx != nil {
		g.inputGrad(dx, grad, w)
	}
}

// inputGrad writes dx: a pixel adds, for (ky, kx) descending (Col2Im's
// ascending (oy, ox)), the filter sum Σ_f ĝ·w[f,p] over ascending f from +0
// with ±0 gradient terms left out (gm × W's element), each finished before it
// joins the pixel's sum from +0. Terms Col2Im never adds read the padding's
// zeros and add +0. When the gradient is finite, the filters whose weight is
// ±0 are left out of a filter sum, and a (ky, kx) with none left adds nothing:
// it would add +0 to a sum from +0.
func (g *Conv) inputGrad(dx, grad, w *Tensor) {
	n, gimg, spatial := grad.shape[0], g.F*g.hg*g.wg, g.OutH*g.OutW
	g.gp = padded(g.gp, n*gimg+convSlack)
	for i := range n * g.F { // gradient plane i = img·F + f
		src, at := grad.data[i*spatial:(i+1)*spatial], (i*g.hg+g.gtop)*g.wg+g.gleft
		for oy := range min(g.OutH, g.hg-g.gtop) {
			copy(g.gp[at+oy*g.wg:][:g.wg-g.gleft], src[oy*g.OutW:(oy+1)*g.OutW])
		}
	}
	// Leaving a ±0 gradient term out matters only against a ±Inf or NaN
	// weight: otherwise its product is ±0, which a sum from +0 absorbs. With
	// a non-finite gradient, every filter is kept, as in the forward.
	p, kk, s, keep := g.C*g.KH*g.KW, g.KH*g.KW, g.Stride, 0
	mask := !finite(w.data)
	if !finite(grad.data) {
		keep = 1
	}
	l, k := 0, 0
	for _, ph := range g.phases {
		for j, kp := range ph.kk {
			for c := range g.C {
				for f := range g.F {
					v := w.data[f*p+c*kk+kp]
					g.gw[k], g.goff[k] = v, ph.off[j*g.F+f]
					k += live(v) | keep
				}
				l++
				g.gend[l] = k
			}
		}
	}
	buf := getScratch(gridLen(((g.H+s-1)/s-1)*g.wg + (g.W+s-1)/s))
	for img := range n {
		gi := g.gp[img*gimg:]
		for c := range g.C {
			plane, kj := dx.data[(img*g.C+c)*g.H*g.W:], 0
			for _, ph := range g.phases {
				acc, first := buf[:gridLen((ph.hu-1)*g.wg+ph.wv)], true
				for range ph.kk {
					l := kj*g.C + c
					kj++
					lo, hi := g.gend[l], g.gend[l+1]
					if lo == hi {
						continue
					}
					// The first sum is stored as it is, since +0 + t is t.
					convRow(acc, g.gw[lo:hi], gi, g.goff[lo:hi], mask, !first, 0)
					first = false
				}
				if first {
					clear(acc)
				}
				for u := range ph.hu {
					dst, src := plane[(ph.a+u*s)*g.W+ph.b:], acc[u*g.wg:u*g.wg+ph.wv]
					if s == 1 {
						copy(dst, src)
						continue
					}
					for v, val := range src {
						dst[v*s] = val
					}
				}
			}
		}
	}
	putScratch(buf)
}
