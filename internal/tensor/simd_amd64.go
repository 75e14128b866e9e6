package tensor

// useAVX2 is decided once: the CPU has AVX2 and the OS saves the YMM state.
var useAVX2 = cpuHasAVX2()

func init() {
	if useAVX2 {
		axpy = axpyAVX2
	}
}

func cpuHasAVX2() bool

//go:noescape
func axpyAVX2(a float32, x, y []float32)

//go:noescape
func dotColsAVX2(c, a, bt []float32, stride int)
