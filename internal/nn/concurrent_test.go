package nn

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"pactrain/internal/tensor"
)

// TestLayersOnGoroutinesMatchSerial runs two tensor.Convs and two attention
// layers at once, each on its own goroutine for three Forward and Backward
// passes, and holds every output and gradient to a twin's serial run bit for
// bit. Every work buffer belongs to its layer, so under -race nothing here
// may be shared.
func TestLayersOnGoroutinesMatchSerial(t *testing.T) {
	// Each maker builds a layer with its own inputs; run makes one pass and
	// returns everything it wrote.
	makers := []func() (run func() [][]float32){
		convPass(1, 2, 3, 12, 8, 3, 1, 1),
		convPass(2, 3, 4, 9, 5, 4, 2, 1),
		attnPass(3, 3, 17, 48, 4),
		attnPass(4, 2, 9, 24, 2),
	}
	want := make([][][]float32, len(makers))
	for i, mk := range makers {
		want[i] = mk()()
	}
	got := make([][][][]float32, len(makers))
	var wg sync.WaitGroup
	for i, mk := range makers {
		run := mk()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				got[i] = append(got[i], run())
			}
		}()
	}
	wg.Wait()
	for i := range makers {
		for pass, res := range got[i] {
			for j := range want[i] {
				sameConvBits(t, fmt.Sprintf("layer %d, pass %d, result %d", i, pass, j), res[j], want[i][j])
			}
		}
	}
}

// convPass makes a Conv over an (n, c, hw, hw) input with f filters of k×k,
// about a third of its weights zero.
func convPass(seed uint64, n, c, hw, f, k, s, pad int) func() func() [][]float32 {
	return func() func() [][]float32 {
		r := tensor.NewRNG(seed)
		oh := tensor.ConvOutSize(hw, k, s, pad)
		x, grad := tensor.Randn(r, 1, n, c, hw, hw), tensor.Randn(r, 1, n, f, oh, oh)
		w, bias := tensor.Randn(r, 1, f, c*k*k), tensor.Randn(r, 1, f)
		for i := range w.Data() {
			if r.Intn(3) == 0 {
				w.Data()[i] = 0
			}
		}
		g := tensor.ConvFor(nil, x, f, k, k, s, pad)
		out, dW, dx := tensor.New(n, f, oh, oh), tensor.New(f, c*k*k), tensor.New(n, c, hw, hw)
		return func() [][]float32 {
			g.Forward(out, x, w, bias)
			g.Backward(dW, dx, grad, w)
			return [][]float32{slices.Clone(out.Data()), slices.Clone(dW.Data()), slices.Clone(dx.Data())}
		}
	}
}

// attnPass makes an attention layer of width d over (n, tk, d) tokens.
func attnPass(seed uint64, n, tk, d, heads int) func() func() [][]float32 {
	return func() func() [][]float32 {
		r := tensor.NewRNG(seed)
		l := NewMultiHeadAttention("a", r, d, heads)
		x, grad := tensor.Randn(r, 1, n, tk, d), tensor.Randn(r, 1, n, tk, d)
		return func() [][]float32 {
			for _, p := range l.Params() {
				p.ZeroGrad()
			}
			res := [][]float32{slices.Clone(l.Forward(x, true).Data()), slices.Clone(l.Backward(grad).Data())}
			for _, p := range l.Params() {
				res = append(res, slices.Clone(p.Grad.Data()))
			}
			return res
		}
	}
}
