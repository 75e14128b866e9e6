package tensor

import (
	"fmt"
	"slices"

	"pactrain/internal/par"
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
	xp, gp, gm []float32
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
	return g
}

// Forward writes out (N, F, OutH, OutW) = x ⊛ w + bias and keeps the padded x
// for Backward: element (img, f, oy, ox) sums w[f,p]·x̂ over ascending p from
// +0, padding terms included, then adds bias[f], as cols × Wᵀ plus bias did.
func (g *Conv) Forward(out, x, w, bias *Tensor) {
	n, s, plane := x.shape[0], g.Stride, g.hq*g.wq
	g.xp = slices.Grow(g.xp[:0], n*g.xn+convSlack)[:n*g.xn+convSlack]
	clear(g.xp)
	for row := 0; row < n*g.C*g.H; row++ { // row = (img·C + ch)·H + iy
		src, y := x.data[row*g.W:(row+1)*g.W], row%g.H+g.Pad
		base := (row/g.H*s+y%s)*s*plane + y/s*g.wq
		if s == 1 {
			copy(g.xp[base+g.Pad:], src)
			continue
		}
		for px := range s {
			ix := (px - g.Pad%s + s) % s // the first column in phase px
			dst := g.xp[base+px*plane+(ix+g.Pad)/s:]
			for j := 0; ix < g.W; ix, j = ix+s, j+1 {
				dst[j] = src[ix]
			}
		}
	}
	items := n * g.F
	if work := items * g.OutH * g.wq * len(g.xoff); par.PlanChunks(items, work) > 1 {
		par.ForChunksWork(items, work, func(_, lo, hi int) { g.forward(out.data, w.data, bias.data, lo, hi) })
		return
	}
	g.forward(out.data, w.data, bias.data, 0, items)
}

// forward computes output planes [lo,hi), plane i = img·F + f.
func (g *Conv) forward(od, wd, bd []float32, lo, hi int) {
	p, spatial := g.C*g.KH*g.KW, g.OutH*g.OutW
	row := getScratch(gridLen((g.OutH-1)*g.wq + g.OutW))
	for i := lo; i < hi; i++ {
		convRow(row, wd[i%g.F*p:], 1, g.xp[i/g.F*g.xn:], g.xoff[:p], false, false)
		o, bv := od[i*spatial:], bd[i%g.F]
		for oy := range g.OutH {
			for ox, v := range row[oy*g.wq : oy*g.wq+g.OutW] {
				o[oy*g.OutW+ox] = v + bv
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
	g.gm = slices.Grow(g.gm[:0], n*spatial*fs)[:n*spatial*fs]
	clear(g.gm)
	for row := 0; row < n*g.F; row++ { // row = img·F + f
		rows := g.gm[row/g.F*spatial*fs+row%g.F:]
		for r, v := range grad.data[row*spatial : (row+1)*spatial] {
			rows[r*fs] = v
		}
	}
	dwt := getScratch(len(g.xoff) * fs)
	clear(dwt)
	blocks := fs / 8 * len(g.xoff) / 8
	if work := n * spatial * fs * len(g.xoff); par.PlanChunks(blocks, work) > 1 {
		par.ForChunksWork(blocks, work, func(_, lo, hi int) { g.weightGrad(dwt, n, lo, hi) })
	} else {
		g.weightGrad(dwt, n, 0, blocks)
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

// weightGrad computes blocks [lo,hi) of dWᵀ, rows of F rounded up to 8: block
// i is 8 terms of 8 filters, each element summed over ascending (img, oy, ox)
// from +0 with ±0 gradient terms left out, as gmᵀ × cols summed it.
func (g *Conv) weightGrad(dwt []float32, n, lo, hi int) {
	fs, spatial := (g.F+7)&^7, g.OutH*g.OutW
	for i := lo; i < hi; i++ {
		f0, p0 := i%(fs/8)*8, i/(fs/8)*8
		for img := range n {
			convWeight(dwt[p0*fs+f0:], fs, g.xp[img*g.xn:], g.xoff[p0:p0+8], g.gm[img*spatial*fs+f0:], fs, g.OutH, g.OutW, g.wq)
		}
	}
}

// inputGrad writes dx: a pixel adds, for (ky, kx) descending (Col2Im's
// ascending (oy, ox)), the filter sum Σ_f ĝ·w[f,p] over ascending f from +0
// with ±0 gradient terms left out (gm × W's element), each finished before it
// joins the pixel's sum from +0. Terms Col2Im never adds read the padding's
// zeros and add +0.
func (g *Conv) inputGrad(dx, grad, w *Tensor) {
	n, gimg := grad.shape[0], g.F*g.hg*g.wg
	g.gp = slices.Grow(g.gp[:0], n*gimg+convSlack)[:n*gimg+convSlack]
	clear(g.gp)
	for row := 0; row < n*g.F*g.OutH; row++ { // row = (img·F + f)·OutH + oy
		if y := row%g.OutH + g.gtop; y < g.hg {
			copy(g.gp[(row/g.OutH*g.hg+y)*g.wg+g.gleft:][:g.wg-g.gleft], grad.data[row*g.OutW:(row+1)*g.OutW])
		}
	}
	// Leaving a ±0 gradient term out matters only against a ±Inf or NaN
	// weight: otherwise its product is ±0, which a sum from +0 absorbs.
	mask := false
	for _, v := range w.data {
		mask = mask || v-v != 0
	}
	items := n * g.C
	if work := items * g.F * g.H * g.W * g.KH * g.KW / (g.Stride * g.Stride); par.PlanChunks(items, work) > 1 {
		par.ForChunksWork(items, work, func(_, lo, hi int) { g.inputGradPlanes(dx.data, w.data, mask, lo, hi) })
		return
	}
	g.inputGradPlanes(dx.data, w.data, mask, 0, items)
}

// inputGradPlanes computes dx planes [lo,hi), plane i = img·C + c.
func (g *Conv) inputGradPlanes(xd, wd []float32, mask bool, lo, hi int) {
	p, kk, s := g.C*g.KH*g.KW, g.KH*g.KW, g.Stride
	buf := getScratch(gridLen(((g.H+s-1)/s-1)*g.wg + (g.W+s-1)/s))
	for i := lo; i < hi; i++ {
		for _, ph := range g.phases {
			acc := buf[:gridLen((ph.hu-1)*g.wg+ph.wv)]
			clear(acc)
			for j, k := range ph.kk {
				convRow(acc, wd[i%g.C*kk+k:], p, g.gp[i/g.C*g.F*g.hg*g.wg:], ph.off[j*g.F:(j+1)*g.F], mask, true)
			}
			for u := range ph.hu {
				dst, src := xd[i*g.H*g.W+(ph.a+u*s)*g.W+ph.b:], acc[u*g.wg:u*g.wg+ph.wv]
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
	putScratch(buf)
}
