package nn

import "pactrain/internal/tensor"

// Scratch-buffer helpers. Layers keep their forward/backward temporaries
// alive across train steps and re-acquire them through these ensure*
// functions, which return the buffer unchanged when the shape still matches
// and allocate a fresh tensor only when the shape changed (first step, or a
// different batch size at eval time). The helpers are deliberately
// non-variadic: a `shape ...int` signature would allocate the shape slice on
// every call, and the steady-state train step is required to be
// allocation-free.
//
// Reuse safety relies on the layer-graph discipline that already holds for
// the lastInput caches: a layer's output buffer is consumed by the next
// layer within the same forward/backward pass, and no layer touches its own
// buffers again until its next Forward/Backward call. Buffers are fully
// overwritten on reuse (the *Into kernels zero or assign every element), so
// stale values can never leak between steps.

// ensure2 returns buf if it is a (r, c) tensor, else a new one.
func ensure2(buf *tensor.Tensor, r, c int) *tensor.Tensor {
	if buf != nil && buf.Rank() == 2 && buf.Dim(0) == r && buf.Dim(1) == c {
		return buf
	}
	return tensor.New(r, c)
}

// ensure3 returns buf if it is a (a, b, c) tensor, else a new one.
func ensure3(buf *tensor.Tensor, a, b, c int) *tensor.Tensor {
	if buf != nil && buf.Rank() == 3 && buf.Dim(0) == a && buf.Dim(1) == b && buf.Dim(2) == c {
		return buf
	}
	return tensor.New(a, b, c)
}

// ensure4 returns buf if it is a (n, c, h, w) tensor, else a new one.
func ensure4(buf *tensor.Tensor, n, c, h, w int) *tensor.Tensor {
	if buf != nil && buf.Rank() == 4 && buf.Dim(0) == n && buf.Dim(1) == c && buf.Dim(2) == h && buf.Dim(3) == w {
		return buf
	}
	return tensor.New(n, c, h, w)
}

// ensureLike returns buf if it has exactly x's shape, else a new tensor of
// that shape.
func ensureLike(buf, x *tensor.Tensor) *tensor.Tensor {
	if buf != nil && buf.SameShape(x) {
		return buf
	}
	return tensor.New(x.Shape()...)
}
