package tensor

import "fmt"

// Im2Col lowers a batched image tensor into a matrix so that convolution
// becomes a single matrix multiplication. PatchEmbed lowers its patches with
// it; Conv2D computes directly (Conv) and the lowering is its test oracle.
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
// matrix, which PatchEmbed reuses across steps. dst is fully overwritten;
// padding positions are re-zeroed.
func Im2ColInto(dst, x *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	rows, rowLen := n*outH*outW, c*kh*kw
	if dst.Rank() != 2 || dst.shape[0] != rows || dst.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Im2ColInto dst%v, want [%d %d] for x%v k=%dx%d stride=%d pad=%d",
			dst.shape, rows, rowLen, x.shape, kh, kw, stride, pad))
	}
	// An interior receptive field — one that touches no padding — is kh
	// contiguous kw-runs per channel, copied with no zero fill and no
	// per-element tests; a field that touches padding zeroes its row first.
	cd, xd := dst.data, x.data
	for r := 0; r < rows; r++ {
		row := r * rowLen
		ox := r % outW
		oy := (r / outW) % outH
		img := r / (outW * outH)
		base := img * c * h * w
		iy0 := oy*stride - pad
		ix0 := ox*stride - pad
		if iy0 >= 0 && ix0 >= 0 && iy0+kh <= h && ix0+kw <= w {
			d := cd[row : row+rowLen]
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
// gradient of Im2Col.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	img := New(n, c, h, w)
	Col2ImInto(img, cols, kh, kw, stride, pad)
	return img
}

// Col2ImInto is Col2Im writing into a caller-owned (N, C, H, W) tensor, which
// is fully overwritten: a serial scatter into the zeroed tensor, so every
// pixel sums its contributions from +0 in ascending (oy, ox, ky, kx) order.
// PatchEmbed's input gradient is its one caller, and no training computes
// that gradient (a model's first layer skips it).
func Col2ImInto(dst, cols *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	rows, rowLen := n*outH*outW, c*kh*kw
	if cols.Rank() != 2 || cols.shape[0] != rows || cols.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Col2ImInto cols%v, want [%d %d] for dst%v k=%dx%d stride=%d pad=%d",
			cols.shape, rows, rowLen, dst.shape, kh, kw, stride, pad))
	}
	clear(dst.data)
	for r := 0; r < rows; r++ {
		img, oy, ox := r/(outH*outW), r/outW%outH, r%outW
		for p, v := range cols.data[r*rowLen : (r+1)*rowLen] {
			iy, ix := oy*stride-pad+p/kw%kh, ox*stride-pad+p%kw
			if iy >= 0 && iy < h && ix >= 0 && ix < w {
				dst.data[((img*c+p/(kh*kw))*h+iy)*w+ix] += v
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size k with the given stride and padding over an input of size
// in.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
