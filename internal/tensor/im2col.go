package tensor

// Im2Col and Col2Im are the lowering of a convolution to one matrix
// multiplication, written as the plain definition. No layer trains through
// them: every convolution, PatchEmbed's included, runs on Conv, and the
// lowering (Im2Col, the matmuls, Col2Im) is its test oracle (DESIGN.md §2).

// Im2Col lowers x (N, C, H, W) into a (N*outH*outW, C*kh*kw) matrix whose row
// (img, oy, ox) is that output position's receptive field, term (c, ky, kx),
// with zeros where the field reaches into the padding.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outH, outW := ConvOutSize(h, kh, stride, pad), ConvOutSize(w, kw, stride, pad)
	rowLen := c * kh * kw
	cols := New(n*outH*outW, rowLen)
	for r := range n * outH * outW {
		img, oy, ox := r/(outH*outW), r/outW%outH, r%outW
		for p := range rowLen {
			iy, ix := oy*stride-pad+p/kw%kh, ox*stride-pad+p%kw
			if iy >= 0 && iy < h && ix >= 0 && ix < w {
				cols.data[r*rowLen+p] = x.data[((img*c+p/(kh*kw))*h+iy)*w+ix]
			}
		}
	}
	return cols
}

// Col2Im is the adjoint of Im2Col: it scatters a (N*outH*outW, C*kh*kw)
// column matrix back into a new (N, C, H, W) tensor, every pixel summing its
// contributions from +0 in ascending (oy, ox, ky, kx) order. Overlapping
// receptive fields sum, which is exactly the gradient of Im2Col.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	outH, outW := ConvOutSize(h, kh, stride, pad), ConvOutSize(w, kw, stride, pad)
	rowLen := c * kh * kw
	img := New(n, c, h, w)
	for r := range n * outH * outW {
		im, oy, ox := r/(outH*outW), r/outW%outH, r%outW
		for p, v := range cols.data[r*rowLen : (r+1)*rowLen] {
			iy, ix := oy*stride-pad+p/kw%kh, ox*stride-pad+p%kw
			if iy >= 0 && iy < h && ix >= 0 && ix < w {
				img.data[((im*c+p/(kh*kw))*h+iy)*w+ix] += v
			}
		}
	}
	return img
}

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size k with the given stride and padding over an input of size
// in.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
