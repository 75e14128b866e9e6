// Package tensor implements the dense float32 tensor substrate used by the
// PacTrain reproduction: shape/stride bookkeeping, elementwise kernels,
// matrix multiplication, direct convolution, reductions, and a
// deterministic random number generator so every experiment is replayable
// bit-for-bit.
//
// The package is intentionally minimal but complete: it contains exactly the
// operations the neural-network layers in internal/nn need for analytic
// forward and backward passes, with no hidden global state. All tensors own
// their backing storage; views are explicit.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major float32 tensor. The zero value is not usable;
// construct tensors with New, Zeros, Full, FromSlice, or the RNG helpers.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative; a tensor with zero dimensions is a scalar holding
// one element.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// Unbound returns a tensor of the given shape with no storage: Data is nil
// until Rebind gives it a slice of the shape's volume.
func Unbound(shape ...int) *Tensor {
	checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...)}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); the caller must not retain it. It panics if the
// length does not match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing storage. Mutating it mutates the tensor; this is
// the intended mechanism for kernels and for the communication layer, which
// flattens gradients into buckets.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.Offset(idx...)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.Offset(idx...)] = v }

// Offset converts a multi-index into a flat offset, panicking on
// out-of-range indices.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape sharing the same storage. The new
// shape must have the same volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.data), shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// Rebind repoints the tensor at data without copying; len(data) must equal
// the tensor's volume. It exists so reusable view headers (e.g. per-sample
// slices of a batch tensor) can be retargeted across train steps without
// allocating a new header per view, and so an Unbound tensor gets storage.
func (t *Tensor) Rebind(data []float32) {
	want := len(t.data)
	if t.data == nil {
		want = checkShape(t.shape)
	}
	if len(data) != want {
		panic(fmt.Sprintf("tensor: Rebind length %d does not match shape %v", len(data), t.shape))
	}
	t.data = data
}

// Resize gives t a new shape in place. The storage is kept when its capacity
// holds the new volume and replaced otherwise, so a scratch buffer that
// alternates between shapes (an evaluation chunk of 64, a batch of 8) stops
// allocating once it has held the largest. Element values after a resize are
// unspecified: the caller overwrites every element.
func (t *Tensor) Resize(shape ...int) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in Resize")
		}
		n *= d
	}
	t.shape = append(t.shape[:0], shape...)
	if cap(t.data) < n {
		t.data = make([]float32, n)
	} else {
		t.data = t.data[:n]
	}
}

// Zero sets every element to zero in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// String renders a compact description (shape plus leading values) for
// debugging; it never prints more than eight elements.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if n > show {
		fmt.Fprintf(&b, " … +%d", n-show)
	}
	b.WriteString("]")
	return b.String()
}

// --- Elementwise operations -------------------------------------------------

// AddInto computes dst = a + b elementwise. All three must share volume.
func AddInto(dst, a, b *Tensor) {
	checkSameLen3(dst, a, b)
	d, x, y := dst.data, a.data, b.data
	for i := range d {
		d[i] = x[i] + y[i]
	}
}

// SubInto computes dst = a - b elementwise.
func SubInto(dst, a, b *Tensor) {
	checkSameLen3(dst, a, b)
	d, x, y := dst.data, a.data, b.data
	for i := range d {
		d[i] = x[i] - y[i]
	}
}

// Add returns a + b as a new tensor shaped like a.
func Add(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	AddInto(out, a, b)
	return out
}

// Sub returns a - b as a new tensor shaped like a.
func Sub(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	SubInto(out, a, b)
	return out
}

// AxpyInto computes dst += alpha * src.
func AxpyInto(dst *Tensor, alpha float32, src *Tensor) {
	if len(dst.data) != len(src.data) {
		panic("tensor: Axpy volume mismatch")
	}
	axpy(alpha, src.data, dst.data)
}

// ScaleInPlace multiplies every element of t by alpha.
func (t *Tensor) ScaleInPlace(alpha float32) { scale(t.data, alpha) }

// Scale multiplies every element of x by alpha.
func Scale(x []float32, alpha float32) { scale(x, alpha) }

// AddTo adds x into y elementwise, y[j] += x[j], rounded as the scalar loop;
// fromZero writes +0 + x[j], a sum's first term fused with the clear.
func AddTo(y, x []float32, fromZero bool) {
	if len(y) != len(x) {
		panic("tensor: AddTo length mismatch")
	}
	add(y, x, fromZero)
}

// ScatterAdd adds vals[i] to dst[idx[i]] for every i.
func ScatterAdd(dst []float32, idx []int32, vals []float32) {
	for i := range idx {
		dst[idx[i]] += vals[i]
	}
}

// SGDStep is one momentum-SGD update of a parameter w with gradient g:
// g += wd·w unless wd is 0, then v = mom·v + g and w -= lr·v, or only
// w -= lr·g when mom is 0 (v is then not read). Each product, sum and
// difference rounds on its own, in that order.
func SGDStep(w, g, v []float32, lr, mom, wd float32) {
	if len(g) != len(w) || mom != 0 && len(v) != len(w) {
		panic("tensor: SGDStep length mismatch")
	}
	if mom != 0 {
		momentum(w, g, v, lr, mom, wd)
		return
	}
	for j := range w { // no trainer runs without momentum: the loop is enough
		if wd != 0 {
			g[j] += float32(wd * w[j])
		}
		w[j] -= float32(lr * g[j])
	}
}

// Apply replaces each element x with f(x) in place.
func (t *Tensor) Apply(f func(float32) float32) {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
}

func checkSameLen3(a, b, c *Tensor) {
	if len(a.data) != len(b.data) || len(b.data) != len(c.data) {
		panic(fmt.Sprintf("tensor: elementwise volume mismatch %d/%d/%d", len(a.data), len(b.data), len(c.data)))
	}
}

// --- Reductions ---------------------------------------------------------

// Sum returns the sum of all elements in float64 for accuracy.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Max returns the maximum element and its flat index. It panics on an empty
// tensor.
func (t *Tensor) Max() (float32, int) {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, arg := t.data[0], 0
	for i, v := range t.data {
		if v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// Min returns the minimum element and its flat index.
func (t *Tensor) Min() (float32, int) {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	best, arg := t.data[0], 0
	for i, v := range t.data {
		if v < best {
			best, arg = v, i
		}
	}
	return best, arg
}

// MaxAbs returns max |x[j]|, 0 for an empty slice; a NaN is never the larger.
func MaxAbs(x []float32) float32 { return maxAbs(x) }

// MagnitudeBits maps v to an unsigned key ordered like |v|: its IEEE-754 bit
// pattern with the sign cleared. +0 and −0 share key 0, denormals, normals
// and ±Inf keep their numeric order, and every NaN ranks above +Inf. Every
// magnitude ranking that decides a mask or a selection (pruning thresholds,
// top-k) compares these keys, which pins what a NaN means there — larger
// than every number — and keeps the comparison a strict weak order.
func MagnitudeBits(v float32) uint32 { return math.Float32bits(v) &^ (1 << 31) }

// KthKey returns the key slices.Sort would put at index k < len(keys), by
// radix selection in O(len(keys)): each pass counts the remaining keys by one
// byte, most significant first, fixes that byte of the answer, and keeps only
// the keys that share it, moved to the front of keys (which it reorders).
// Both magnitude thresholds — pruning's and top-k's — are selected here.
func KthKey(keys []uint32, k int) uint32 {
	var key uint32
	for shift := 24; shift >= 0; shift -= 8 {
		var count [256]int
		for _, v := range keys {
			count[byte(v>>shift)]++
		}
		b := 0
		for k >= count[b] {
			k -= count[b]
			b++
		}
		key |= uint32(b) << shift
		n := 0
		for _, v := range keys {
			keys[n] = v
			if byte(v>>shift) == byte(b) {
				n++
			}
		}
		keys = keys[:n]
	}
	return key
}

// CountNonZero returns the number of elements that are exactly non-zero.
func (t *Tensor) CountNonZero() int {
	n := 0
	for _, v := range t.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of elements that are exactly zero, in [0,1].
func (t *Tensor) Sparsity() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return 1 - float64(t.CountNonZero())/float64(len(t.data))
}

// Dot returns the inner product of the flattened tensors.
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic("tensor: Dot volume mismatch")
	}
	var s float64
	for i := range a.data {
		s += float64(a.data[i]) * float64(b.data[i])
	}
	return s
}

// --- Linear algebra -------------------------------------------------------

// MatMul computes C = A × B for A of shape (m,k) and B of shape (k,n),
// returning a new (m,n) tensor. The kernel is blocked over the inner
// dimension with the j-loop innermost so it vectorizes well.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch (%d,%d)×(%d,%d)", m, k, k2, n))
	}
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// checkMatMulShapes panics with the offending shapes when dst/a/b are not a
// valid (m,n) = (m,k) × (k,n) triple after the requested transpositions.
func checkMatMulShapes(op string, dst, a, b *Tensor, m, k, k2, n int) {
	if dst.Rank() != 2 || a.Rank() != 2 || b.Rank() != 2 || k != k2 ||
		dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s shape mismatch: dst%v, a%v, b%v", op, dst.shape, a.shape, b.shape))
	}
}

// MatMulInto computes dst = A × B; dst must have shape (m,n) and is
// overwritten. Each output element is the ascending-p sum of a[i,p]·b[p,j]
// (with the a==0 skip).
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	checkMatMulShapes("MatMulInto", dst, a, b, m, k, b.shape[0], n)
	for i := 0; i < m; i++ {
		mulRow(dst.data[i*n:(i+1)*n], a.data[i*k:], 1, b.data, n, k, true)
	}
}

// MatMulTransAInto computes dst = Aᵀ × B for A of shape (k,m) and B of shape
// (k,n); dst must be (m,n). Used by Linear backward for weight gradients.
//
// An output row i is one mulRow reading column i of A at stride m: every dst
// element accumulates its a[p,i]·b[p,j] terms in ascending p.
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	checkMatMulShapes("MatMulTransAInto", dst, a, b, m, k, b.shape[0], n)
	if k == 0 { // A has no column i to start a row at
		clear(dst.data)
		return
	}
	for i := 0; i < m; i++ {
		mulRow(dst.data[i*n:(i+1)*n], a.data[i:], m, b.data, n, k, true)
	}
}

// MatMulTransBInto computes dst = A × Bᵀ for A of shape (m,k) and B of shape
// (n,k); dst must be (m,n). Used by Linear backward for input gradients.
//
// The scalar kernel register-blocks four B rows (output columns) per pass:
// each of the four accumulators is still a plain ascending-p dot product, so
// the blocking does not change any element's float evaluation order. With
// AVX2 and at least one register of columns the same dot products are mulRow
// over a transpose of B in reused scratch (simd.go), unless the inner
// dimension is empty and there is nothing to transpose.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	checkMatMulShapes("MatMulTransBInto", dst, a, b, m, k, b.shape[1], n)
	if transBLanes(n, k) {
		bt := transposed(b.data, n, k)
		matMulTransBRowsAVX2(dst.data, a.data, bt, k, n, m)
		putScratch(bt)
		return
	}
	matMulTransBRows(dst.data, a.data, b.data, k, n, m)
}

// MatMulTransBHeldInto is MatMulTransBInto for a caller that already holds
// bt = Bᵀ, shape (k,n), as one that multiplies by the same B many times
// does: where MatMulTransBInto would transpose B, it reads bt instead, and
// elsewhere it reads B. Every element is the same as MatMulTransBInto's.
func MatMulTransBHeldInto(dst, a, b, bt *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	checkMatMulShapes("MatMulTransBHeldInto", dst, a, b, m, k, b.shape[1], n)
	if bt.Rank() != 2 || bt.shape[0] != k || bt.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBHeldInto shape mismatch: b%v, bt%v", b.shape, bt.shape))
	}
	if transBLanes(n, k) {
		matMulTransBRowsAVX2(dst.data, a.data, bt.data, k, n, m)
		return
	}
	matMulTransBRows(dst.data, a.data, b.data, k, n, m)
}

// transBLanes reports whether A × Bᵀ with n output columns and inner
// dimension k runs the AVX2 lanes over Bᵀ.
func transBLanes(n, k int) bool { return useAVX2 && n >= 8 && k > 0 }

// matMulTransBRowsAVX2 is matMulTransBRows over bt = transposed(B). A row
// narrower than 32 columns is at most three 8-column tiles, each one add
// chain that waits on itself, so there four rows go to a tile (tile4AVX2):
// four chains per tile, each still its own row's ascending-p sum.
func matMulTransBRowsAVX2(cd, ad, bt []float32, k, n, m int) {
	i := 0
	if n < 32 {
		for ; i+4 <= m; i += 4 {
			for j := 0; j < n; j += 8 {
				t := min(j, n-8) // a ragged last tile is the last 8 columns
				tile4AVX2(cd[i*n+t:], n, ad[i*k:], k, bt[t:], n, k)
			}
		}
	}
	for ; i < m; i++ {
		mulRow(cd[i*n:(i+1)*n], ad[i*k:], 1, bt, n, k, false)
	}
}

// matMulTransBRows computes the m output rows of C = A × Bᵀ. Each output
// element is an independent dot product, so rows need no zeroing.
func matMulTransBRows(cd, ad, bd []float32, k, n, m int) {
	for i := 0; i < m; i++ {
		ai := ad[i*k : (i+1)*k]
		ci := cd[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := bd[j*k : (j+1)*k]
			b1 := bd[(j+1)*k : (j+2)*k]
			b2 := bd[(j+2)*k : (j+3)*k]
			b3 := bd[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci[j] = s0
			ci[j+1] = s1
			ci[j+2] = s2
			ci[j+3] = s3
		}
		for ; j < n; j++ {
			bj := bd[j*k : (j+1)*k]
			var s float32
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] = s
		}
	}
}

// Transpose returns a new tensor that is the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank-2 tensor")
	}
	out := New(a.shape[1], a.shape[0])
	transposeTo(out.data, a.data, a.shape[0], a.shape[1])
	return out
}

// TransposeInto writes aᵀ into dst; a is (m,n) and dst must be (n,m).
func TransposeInto(dst, a *Tensor) {
	if a.Rank() != 2 || dst.Rank() != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != a.shape[0] {
		panic(fmt.Sprintf("tensor: TransposeInto shape mismatch: dst%v, a%v", dst.shape, a.shape))
	}
	transposeTo(dst.data, a.data, a.shape[0], a.shape[1])
}

// transposeTo writes the (n,m) transpose of the (m,n) matrix a into dst.
func transposeTo(dst, a []float32, m, n int) {
	for i := 0; i < m; i++ {
		for j, v := range a[i*n : (i+1)*n] {
			dst[j*m+i] = v
		}
	}
}
