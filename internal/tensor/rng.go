package tensor

import "math"

// RNG is a deterministic splitmix64-based pseudo-random generator. Every
// stochastic component in the reproduction (weight init, data synthesis,
// TernGrad sampling, RandomK selection) draws from an explicitly seeded RNG
// so that distributed workers can reproduce each other's choices and every
// experiment is bit-for-bit replayable.
//
// The zero value is a valid generator seeded with 0; prefer NewRNG.
type RNG struct {
	state uint64
	// Gaussian spare value (Box-Muller generates pairs).
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	mul := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * mul
	r.hasSpare = true
	return u * mul
}

// Perm returns a pseudo-random permutation of [0,n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Randn fills a new tensor of the given shape with N(0, std²) samples. A nil
// r draws nothing and leaves the tensor zero, as does every initializer below:
// a layer tree built that way gets its weights copied in afterwards.
func Randn(r *RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	if r == nil {
		return t
	}
	for i := range t.data {
		t.data[i] = float32(r.NormFloat64() * std)
	}
	return t
}

// RandUniform fills a new tensor with U(lo, hi) samples.
func RandUniform(r *RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	if r == nil {
		return t
	}
	span := hi - lo
	for i := range t.data {
		t.data[i] = float32(lo + span*r.Float64())
	}
	return t
}

// KaimingInit fills a new tensor with Kaiming-He normal initialization for a
// layer with the given fan-in, the standard initialization for ReLU
// networks.
func KaimingInit(r *RNG, fanIn int, shape ...int) *Tensor {
	if fanIn <= 0 {
		fanIn = 1
	}
	std := math.Sqrt(2.0 / float64(fanIn))
	return Randn(r, std, shape...)
}

// XavierInit fills a new tensor with Glorot/Xavier uniform initialization
// for a layer with the given fan-in and fan-out, used by attention and
// linear projection layers.
func XavierInit(r *RNG, fanIn, fanOut int, shape ...int) *Tensor {
	if fanIn <= 0 {
		fanIn = 1
	}
	if fanOut <= 0 {
		fanOut = 1
	}
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(r, -limit, limit, shape...)
}
