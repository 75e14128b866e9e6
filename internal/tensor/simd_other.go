//go:build !amd64

package tensor

const useAVX2, useFMA = false, false

func rowAVX2(c, a []float32, astride int, b []float32, bstride, k int, skip bool) {
	panic("tensor: no AVX2 kernels on this GOARCH")
}

func tile4AVX2(c []float32, cstride int, a []float32, arow int, b []float32, bstride, k int) {
	panic("tensor: no AVX2 kernels on this GOARCH")
}
