package nn

import (
	"fmt"
	"slices"
	"testing"

	"pactrain/internal/tensor"
)

// bnBackwardSingleChain is BatchNorm2D.Backward as it was written before
// channels' sums ran in flight together, kept as the oracle: one channel at a
// time, its Σdy and Σdy·x̂ each one float64 chain in ascending (image,
// position) order. It returns dx and the gamma and beta gradients the layer's
// Backward should leave, without touching the layer.
func bnBackwardSingleChain(l *BatchNorm2D, grad *tensor.Tensor) (dx, gg, gb []float32) {
	n, c := l.lastShape[0], l.lastShape[1]
	area := l.lastShape[2] * l.lastShape[3]
	m := float64(n * area)
	gd, hd, gw := grad.Data(), l.lastXHat.Data(), l.Gamma.W.Data()
	dx = make([]float32, len(gd))
	gg, gb = slices.Clone(l.Gamma.Grad.Data()), slices.Clone(l.Beta.Grad.Data())
	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for img := 0; img < n; img++ {
			off := (img*c + ch) * area
			for i := 0; i < area; i++ {
				dy := float64(gd[off+i])
				sumDy += dy
				sumDyXhat += dy * float64(hd[off+i])
			}
		}
		gg[ch] += float32(sumDyXhat)
		gb[ch] += float32(sumDy)
		scale := float64(gw[ch]) * l.lastInvStd[ch] / m
		for img := 0; img < n; img++ {
			off := (img*c + ch) * area
			tensor.BatchNormGrad(dx[off:off+area], gd[off:off+area], hd[off:off+area], m, sumDy, sumDyXhat, scale)
		}
	}
	return dx, gg, gb
}

// TestNormSumsInFlightMatchSingleChain holds BatchNorm2D.Backward, whose
// channels' sums run four at a time, to the single-chain loops bit for bit.
// Channel counts run past and between multiples of four, and the input, the
// gradient and the gamma and beta gradients carry ±0, subnormals, ±Inf and
// NaN among finite values. The float64 sums reach the results only through
// float32 roundings, which hide a reordering of finite terms of like size,
// so half the channels open with a cancelling pair of large terms.
func TestNormSumsInFlightMatchSingleChain(t *testing.T) {
	r := tensor.NewRNG(47)
	draw := func(shape ...int) *tensor.Tensor {
		v := tensor.New(shape...)
		for i := range v.Data() {
			if r.Intn(8) == 0 {
				v.Data()[i] = convPalette[r.Intn(40)] // a special or an exact zero
			} else {
				v.Data()[i] = convPalette[40+r.Intn(216)]
			}
		}
		return v
	}
	for _, n := range []int{1, 3} {
		for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 9, 10} {
			for _, hw := range [][2]int{{1, 1}, {3, 5}} {
				t.Run(fmt.Sprintf("n%d c%d %dx%d", n, c, hw[0], hw[1]), func(t *testing.T) {
					l := NewBatchNorm2D("bn", c)
					copy(l.Gamma.W.Data(), draw(c).Data())
					copy(l.Gamma.Grad.Data(), draw(c).Data())
					copy(l.Beta.Grad.Data(), draw(c).Data())
					l.Forward(draw(n, c, hw[0], hw[1]), true)
					grad := draw(n, c, hw[0], hw[1])
					// In every other channel the first two terms cancel, so
					// a sum taken in any other order loses the terms it
					// adds before them.
					if area := hw[0] * hw[1]; n*area > 1 {
						second := 1 // the next position, or the next image's first
						if area == 1 {
							second = c
						}
						for ch := 0; ch < c; ch += 2 {
							grad.Data()[ch*area], grad.Data()[ch*area+second] = 1e30, -1e30
						}
					}
					dx, gg, gb := bnBackwardSingleChain(l, grad)
					sameConvBits(t, "dx", l.Backward(grad).Data(), dx)
					sameConvBits(t, "gamma gradient", l.Gamma.Grad.Data(), gg)
					sameConvBits(t, "beta gradient", l.Beta.Grad.Data(), gb)
				})
			}
		}
	}
}
