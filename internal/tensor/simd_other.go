//go:build !amd64

package tensor

const useAVX2 = false

func dotColsAVX2(c, a, bt []float32, stride int) { panic("tensor: no AVX2 kernels on this GOARCH") }
