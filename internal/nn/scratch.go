package nn

import "pactrain/internal/tensor"

// ensure returns buf resized to shape, or a new tensor of that shape when buf
// is nil. Layers keep their forward/backward temporaries alive across calls
// and re-acquire them through ensure, which only ever grows a buffer's
// storage (tensor.Resize): the flip between evaluation chunks and training
// batches reuses what the largest shape allocated, and the steady-state train
// step is allocation-free. The shape slice stays on the caller's stack, as
// Resize does not retain it.
//
// Reuse safety relies on the layer-graph discipline that already holds for
// the lastInput caches: a layer's output buffer is consumed by the next
// layer within the same forward/backward pass, and no layer touches its own
// buffers again until its next Forward/Backward call. Buffers are fully
// overwritten on reuse (the *Into kernels and tensor.Conv assign every
// element), so stale values can never leak between steps or shapes.
func ensure(buf *tensor.Tensor, shape ...int) *tensor.Tensor {
	if buf == nil {
		buf = tensor.New()
	}
	buf.Resize(shape...)
	return buf
}
