package tensor

import (
	"fmt"

	"pactrain/internal/par"
)

// Im2Col lowers a batched image tensor into a matrix so that convolution
// becomes a single matrix multiplication, the standard approach used by
// CPU/GPU deep-learning kernels.
//
// Input x has shape (N, C, H, W). The result has shape
// (N*outH*outW, C*kh*kw): each row is the receptive field of one output
// position. Zero padding of size pad is applied on both spatial axes, and
// the kernel slides with the given stride.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	cols := New(n*outH*outW, c*kh*kw)
	Im2ColInto(cols, x, kh, kw, stride, pad)
	return cols
}

// Im2ColInto is Im2Col writing into a caller-owned (N*outH*outW, C*kh*kw)
// matrix, so conv layers can reuse the (large) column buffer across steps.
// dst is fully overwritten; padding positions are re-zeroed.
//
// Each output row is an independent gather from x, so the kernel chunks rows
// over the par budget with bit-identical results at any budget.
func Im2ColInto(dst, x *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	rows, rowLen := n*outH*outW, c*kh*kw
	if dst.Rank() != 2 || dst.shape[0] != rows || dst.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Im2ColInto dst%v, want [%d %d] for x%v k=%dx%d stride=%d pad=%d",
			dst.shape, rows, rowLen, x.shape, kh, kw, stride, pad))
	}
	if par.PlanChunks(rows, rows*rowLen) == 1 {
		im2colRows(dst.data, x.data, c, h, w, outH, outW, kh, kw, stride, pad, 0, rows)
		return
	}
	cd, xd := dst.data, x.data
	par.ForChunksWork(rows, rows*rowLen, func(_, lo, hi int) {
		im2colRows(cd, xd, c, h, w, outH, outW, kh, kw, stride, pad, lo, hi)
	})
}

// im2colRows fills column-matrix rows [lo,hi). An interior receptive field —
// one that touches no padding — is kh contiguous kw-runs per channel, copied
// with no zero fill and no per-element tests; a field that touches padding
// zeroes its row first so padding positions read zero even when the buffer is
// reused.
func im2colRows(cd, xd []float32, c, h, w, outH, outW, kh, kw, stride, pad, lo, hi int) {
	rowLen := c * kh * kw
	for r := lo; r < hi; r++ {
		row := r * rowLen
		ox := r % outW
		oy := (r / outW) % outH
		img := r / (outW * outH)
		base := img * c * h * w
		iy0 := oy*stride - pad
		ix0 := ox*stride - pad
		if iy0 >= 0 && ix0 >= 0 && iy0+kh <= h && ix0+kw <= w {
			d := cd[row : row+rowLen]
			if kh == 3 && kw == 3 { // the kernel of every conv twin: nine straight copies
				for ch := 0; ch < c; ch++ {
					s := xd[base+ch*h*w+iy0*w+ix0:][:2*w+3]
					t := d[ch*9:][:9]
					t[0], t[1], t[2] = s[0], s[1], s[2]
					t[3], t[4], t[5] = s[w], s[w+1], s[w+2]
					t[6], t[7], t[8] = s[2*w], s[2*w+1], s[2*w+2]
				}
				continue
			}
			for ch := 0; ch < c; ch++ {
				src := base + ch*h*w + iy0*w + ix0
				for ky := 0; ky < kh; ky++ {
					for kx, v := range xd[src : src+kw] {
						d[kx] = v
					}
					d = d[kw:]
					src += w
				}
			}
			continue
		}
		clear(cd[row : row+rowLen])
		for ch := 0; ch < c; ch++ {
			chBase := base + ch*h*w
			colBase := row + ch*kh*kw
			for ky := 0; ky < kh; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= h {
					continue // row stays zero (padding)
				}
				srcRow := chBase + iy*w
				dstRow := colBase + ky*kw
				for kx := 0; kx < kw; kx++ {
					ix := ix0 + kx
					if ix < 0 || ix >= w {
						continue
					}
					cd[dstRow+kx] = xd[srcRow+ix]
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) a column matrix
// of shape (N*outH*outW, C*kh*kw) back into an image tensor of shape
// (N, C, H, W). Overlapping receptive fields sum, which is exactly the
// gradient of Im2Col, so Conv2D backward can reuse it directly.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	img := New(n, c, h, w)
	Col2ImInto(img, cols, kh, kw, stride, pad)
	return img
}

// Col2ImInto is Col2Im writing into a caller-owned (N, C, H, W) tensor,
// which is fully overwritten.
//
// The kernel chunks over (image, channel) planes: every destination pixel
// lives in exactly one plane, and its overlapping contributions are added in
// ascending (oy, ox, ky, kx) order from +0 — the float addition sequence of a
// scalar scatter into a zeroed plane — so results are bit-identical at any
// par budget.
func Col2ImInto(dst, cols *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	rows, rowLen := n*outH*outW, c*kh*kw
	if cols.Rank() != 2 || cols.shape[0] != rows || cols.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Col2ImInto cols%v, want [%d %d] for dst%v k=%dx%d stride=%d pad=%d",
			cols.shape, rows, rowLen, dst.shape, kh, kw, stride, pad))
	}
	planes := n * c
	work := rows * rowLen
	if par.PlanChunks(planes, work) == 1 {
		col2imPlanes(dst.data, cols.data, c, h, w, outH, outW, kh, kw, stride, pad, 0, planes)
		return
	}
	xd, cd := dst.data, cols.data
	par.ForChunksWork(planes, work, func(_, lo, hi int) {
		col2imPlanes(xd, cd, c, h, w, outH, outW, kh, kw, stride, pad, lo, hi)
	})
}

// col2imPlanes sums column-matrix contributions into (image, channel) planes
// [lo,hi) of the output. It gathers: every pixel adds its own terms from +0
// in ascending (oy, ox) order — which fixes (ky, kx) — so the additions are
// the scatter's, with no plane zeroing, no padding tests and no
// read-modify-write chain through memory. Channels are the inner loop so a
// column row is read whole while it is in cache.
func col2imPlanes(xd, cd []float32, c, h, w, outH, outW, kh, kw, stride, pad, lo, hi int) {
	rowLen := c * kh * kw
	for plane := lo; plane < hi; {
		im, chLo := plane/c, plane%c
		chHi := min(c, chLo+hi-plane)
		for iy := 0; iy < h; iy++ {
			// Output rows whose window covers input row iy: 0 <= iy+pad-oy·stride < kh.
			oyLo := max(0, (iy+pad-kh+stride)/stride)
			oyHi := min(outH-1, (iy+pad)/stride)
			for ix := 0; ix < w; ix++ {
				oxLo := max(0, (ix+pad-kw+stride)/stride)
				oxHi := min(outW-1, (ix+pad)/stride)
				for ch := chLo; ch < chHi; ch++ {
					var s float32
					for oy := oyLo; oy <= oyHi; oy++ {
						ky := iy + pad - oy*stride
						col := (im*outH+oy)*outW*rowLen + (ch*kh+ky)*kw + ix + pad
						for ox := oxLo; ox <= oxHi; ox++ {
							s += cd[col+ox*(rowLen-stride)] // kx = ix+pad-ox·stride
						}
					}
					xd[((im*c+ch)*h+iy)*w+ix] = s
				}
			}
		}
		plane += chHi - chLo
	}
}

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size k with the given stride and padding over an input of size
// in.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
