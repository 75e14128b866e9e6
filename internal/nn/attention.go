package nn

import (
	"fmt"
	"math"

	"pactrain/internal/tensor"
)

// MultiHeadAttention implements standard scaled-dot-product multi-head
// self-attention over (N, T, D) token tensors, the core of the ViT workload
// in the paper's evaluation. D must be divisible by the head count.
//
// Both passes loop over samples. A sample's slot keeps what backward reads of
// its forward; every other temporary is one shared set, and backward adds
// each weight and bias partial into its parameter's gradient as soon as it is
// computed, so every gradient sums the samples in ascending order.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Parameter
	Bq, Bk, Bv, Bo *Parameter

	D, Heads, Dh int

	lastX *tensor.Tensor
	slots []*mhaSlot // one per sample, reused across steps
	tmp   *mhaTemps
	out   *tensor.Tensor
	dx    *tensor.Tensor

	// Wqᵀ, Wkᵀ, Wvᵀ and Woᵀ, written once per Backward for every sample's
	// products by the transposed weights (tensor.MatMulTransBInto).
	wT [4]*tensor.Tensor
}

// mhaSlot is what one sample's forward leaves for its backward.
type mhaSlot struct {
	q, k, v, o *tensor.Tensor   // (T, D)
	attn       []*tensor.Tensor // per head (T, T)
}

// mhaTemps holds the temporaries one sample's pass uses and the next one
// overwrites, so steady-state steps allocate nothing. The xs/ys/gs/dxs view
// headers are retargeted with Rebind each sample.
type mhaTemps struct {
	xs, ys, gs, dxs *tensor.Tensor // (T, D) views into batch tensors

	qh, kh, vh, oh     *tensor.Tensor // (T, Dh)
	ht                 *tensor.Tensor // (Dh, T): a head's Kᵀ (forward) or Vᵀ (backward)
	do, dq, dk, dv     *tensor.Tensor // (T, D)
	doh, dVh, dQh, dKh *tensor.Tensor // (T, Dh)
	dAttn              *tensor.Tensor // (T, T)
	dxPart             *tensor.Tensor // (T, D)
	dW                 *tensor.Tensor // (D, D)
}

// NewMultiHeadAttention constructs an attention layer with Xavier-initialized
// projections.
func NewMultiHeadAttention(name string, r *tensor.RNG, d, heads int) *MultiHeadAttention {
	if d%heads != 0 {
		panic("nn: attention dim must be divisible by head count")
	}
	mk := func(suffix string) *Parameter {
		return newParameter(name+"."+suffix, tensor.XavierInit(r, d, d, d, d), r)
	}
	mkb := func(suffix string) *Parameter {
		return newParameter(name+"."+suffix, tensor.New(d), r)
	}
	return &MultiHeadAttention{
		Wq: mk("q.weight"), Wk: mk("k.weight"), Wv: mk("v.weight"), Wo: mk("out.weight"),
		Bq: mkb("q.bias"), Bk: mkb("k.bias"), Bv: mkb("v.bias"), Bo: mkb("out.bias"),
		D: d, Heads: heads, Dh: d / heads,
	}
}

// ensureScratch sizes the slots for batch size n and the temporaries for
// sequence length t: slots are appended as the batch grows, and a new t
// rebuilds both.
func (l *MultiHeadAttention) ensureScratch(n, t int) {
	d, dh := l.D, l.Dh
	if l.tmp == nil || l.tmp.dAttn.Dim(0) != t {
		l.tmp = &mhaTemps{
			xs: tensor.New(t, d), ys: tensor.New(t, d), gs: tensor.New(t, d), dxs: tensor.New(t, d),
			qh: tensor.New(t, dh), kh: tensor.New(t, dh), vh: tensor.New(t, dh), oh: tensor.New(t, dh),
			ht: tensor.New(dh, t),
			do: tensor.New(t, d), dq: tensor.New(t, d), dk: tensor.New(t, d), dv: tensor.New(t, d),
			doh: tensor.New(t, dh), dVh: tensor.New(t, dh), dQh: tensor.New(t, dh), dKh: tensor.New(t, dh),
			dAttn: tensor.New(t, t), dxPart: tensor.New(t, d), dW: tensor.New(d, d),
		}
		l.slots = l.slots[:0]
	}
	for len(l.slots) < n {
		sl := &mhaSlot{q: tensor.New(t, d), k: tensor.New(t, d), v: tensor.New(t, d), o: tensor.New(t, d),
			attn: make([]*tensor.Tensor, l.Heads)}
		for h := range sl.attn {
			sl.attn[h] = tensor.New(t, t)
		}
		l.slots = append(l.slots, sl)
	}
}

// projectInto computes dst = x·W + b for x of shape (T, D).
func projectInto(dst, x *tensor.Tensor, w, b *Parameter) {
	tensor.MatMulInto(dst, x, w.W)
	t, d := dst.Dim(0), dst.Dim(1)
	od, bd := dst.Data(), b.W.Data()
	for i := 0; i < t; i++ {
		row := od[i*d : (i+1)*d]
		for j := range row {
			row[j] += bd[j]
		}
	}
}

// colBlockInto copies columns [from,from+w) of a (T, D) matrix into a
// (T, w) matrix.
func colBlockInto(dst, x *tensor.Tensor, from int) {
	t, d := x.Dim(0), x.Dim(1)
	w := dst.Dim(1)
	xd, od := x.Data(), dst.Data()
	for i := 0; i < t; i++ {
		copy(od[i*w:(i+1)*w], xd[i*d+from:i*d+from+w])
	}
}

// colBlockTInto writes the transpose of columns [from,from+w) of a (T, D)
// matrix into a (w, T) matrix.
func colBlockTInto(dst, x *tensor.Tensor, from int) {
	t, d := x.Dim(0), x.Dim(1)
	w := dst.Dim(0)
	xd, od := x.Data(), dst.Data()
	for i := 0; i < t; i++ {
		for p, v := range xd[i*d+from : i*d+from+w] {
			od[p*t+i] = v
		}
	}
}

// addColBlock accumulates a (T, w) matrix into columns [from,from+w) of dst.
func addColBlock(dst, src *tensor.Tensor, from int) {
	t, d := dst.Dim(0), dst.Dim(1)
	w := src.Dim(1)
	dd, sd := dst.Data(), src.Data()
	for i := 0; i < t; i++ {
		drow := dd[i*d+from : i*d+from+w]
		srow := sd[i*w : (i+1)*w]
		for j := range drow {
			drow[j] += srow[j]
		}
	}
}

// Forward implements Layer.
func (l *MultiHeadAttention) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	l.lastX = x
	l.ensureScratch(n, t)
	l.out = ensure(l.out, n, t, d)
	scale := float32(1 / math.Sqrt(float64(l.Dh)))

	for s := 0; s < n; s++ {
		l.forwardSample(x, scale, s)
	}
	return l.out
}

// forwardSample runs attention for one sample into its slot and the
// sample's slice of the output tensor.
func (l *MultiHeadAttention) forwardSample(x *tensor.Tensor, scale float32, s int) {
	t, d := x.Dim(1), x.Dim(2)
	sl, tm := l.slots[s], l.tmp
	tm.xs.Rebind(x.Data()[s*t*d : (s+1)*t*d])
	tm.ys.Rebind(l.out.Data()[s*t*d : (s+1)*t*d])
	projectInto(sl.q, tm.xs, l.Wq, l.Bq)
	projectInto(sl.k, tm.xs, l.Wk, l.Bk)
	projectInto(sl.v, tm.xs, l.Wv, l.Bv)
	sl.o.Zero()
	for h := 0; h < l.Heads; h++ {
		from := h * l.Dh
		colBlockInto(tm.qh, sl.q, from)
		colBlockTInto(tm.ht, sl.k, from)
		colBlockInto(tm.vh, sl.v, from)
		scores := sl.attn[h]
		tensor.MatMulTransBInto(scores, tm.qh, tm.ht)
		scores.ScaleInPlace(scale)
		softmaxRows(scores)
		tensor.MatMulInto(tm.oh, scores, tm.vh)
		addColBlock(sl.o, tm.oh, from)
	}
	projectInto(tm.ys, sl.o, l.Wo, l.Bo)
}

// softmaxRows applies softmax to each row of a rank-2 tensor in place.
func softmaxRows(x *tensor.Tensor) {
	t, c := x.Dim(0), x.Dim(1)
	d := x.Data()
	for i := 0; i < t; i++ {
		row := d[i*c : (i+1)*c]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			row[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
}

// Backward implements Layer.
func (l *MultiHeadAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, t, d := grad.Dim(0), grad.Dim(1), grad.Dim(2)
	l.dx = ensure(l.dx, n, t, d)
	scale := float32(1 / math.Sqrt(float64(l.Dh)))
	for i, w := range [...]*Parameter{l.Wq, l.Wk, l.Wv, l.Wo} {
		l.wT[i] = ensure(l.wT[i], d, d)
		tensor.TransposeInto(l.wT[i], w.W)
	}
	for s := 0; s < n; s++ {
		l.backwardSample(grad, scale, s)
	}
	return l.dx
}

// backwardSample computes one sample's dx slice and adds its weight and bias
// partials into the parameter gradients.
func (l *MultiHeadAttention) backwardSample(grad *tensor.Tensor, scale float32, s int) {
	t, d := grad.Dim(1), grad.Dim(2)
	sl, tm := l.slots[s], l.tmp
	tm.gs.Rebind(grad.Data()[s*t*d : (s+1)*t*d])
	tm.dxs.Rebind(l.dx.Data()[s*t*d : (s+1)*t*d])
	tm.xs.Rebind(l.lastX.Data()[s*t*d : (s+1)*t*d])

	// Output projection: y = o·Wo + bo.
	tensor.MatMulTransAInto(tm.dW, sl.o, tm.gs)
	tensor.AxpyInto(l.Wo.Grad, 1, tm.dW)
	accumBias(l.Bo.Grad, tm.gs)
	tensor.MatMulTransBInto(tm.do, tm.gs, l.wT[3])

	tm.dq.Zero()
	tm.dk.Zero()
	tm.dv.Zero()
	for h := 0; h < l.Heads; h++ {
		from := h * l.Dh
		colBlockInto(tm.doh, tm.do, from)
		attn := sl.attn[h]
		colBlockTInto(tm.ht, sl.v, from)
		colBlockInto(tm.qh, sl.q, from)
		colBlockInto(tm.kh, sl.k, from)

		// oh = attn · vh.
		tensor.MatMulTransBInto(tm.dAttn, tm.doh, tm.ht)
		tensor.MatMulTransAInto(tm.dVh, attn, tm.doh)

		// Softmax backward per row: ds = A ⊙ (dA − Σ(dA⊙A)).
		ad, dad := attn.Data(), tm.dAttn.Data()
		for i := 0; i < t; i++ {
			var dot float64
			for j := 0; j < t; j++ {
				dot += float64(float64(dad[i*t+j]) * float64(ad[i*t+j]))
			}
			for j := 0; j < t; j++ {
				dad[i*t+j] = ad[i*t+j] * (dad[i*t+j] - float32(dot))
			}
		}
		tm.dAttn.ScaleInPlace(scale)

		// scores = qh·khᵀ.
		tensor.MatMulInto(tm.dQh, tm.dAttn, tm.kh)
		tensor.MatMulTransAInto(tm.dKh, tm.dAttn, tm.qh)

		addColBlock(tm.dq, tm.dQh, from)
		addColBlock(tm.dk, tm.dKh, from)
		addColBlock(tm.dv, tm.dVh, from)
	}

	// Input projections: q = x·Wq + bq etc. The dx slice accumulates its
	// three parts here (zero + q + k + v, the scalar order).
	tm.dxs.Zero()
	for i, p := range [...]struct {
		w, b *Parameter
		dy   *tensor.Tensor
	}{{l.Wq, l.Bq, tm.dq}, {l.Wk, l.Bk, tm.dk}, {l.Wv, l.Bv, tm.dv}} {
		tensor.MatMulTransAInto(tm.dW, tm.xs, p.dy)
		tensor.AxpyInto(p.w.Grad, 1, tm.dW)
		accumBias(p.b.Grad, p.dy)
		tensor.MatMulTransBInto(tm.dxPart, p.dy, l.wT[i])
		tensor.AxpyInto(tm.dxs, 1, tm.dxPart)
	}
}

// accumBias adds the column sums of a (T, D) gradient into a (D) bias grad.
func accumBias(biasGrad, dy *tensor.Tensor) {
	t, d := dy.Dim(0), dy.Dim(1)
	bg, gd := biasGrad.Data(), dy.Data()
	for i := 0; i < t; i++ {
		row := gd[i*d : (i+1)*d]
		for j := range row {
			bg[j] += row[j]
		}
	}
}

// Params implements Layer.
func (l *MultiHeadAttention) Params() []*Parameter {
	return []*Parameter{l.Wq, l.Bq, l.Wk, l.Bk, l.Wv, l.Bv, l.Wo, l.Bo}
}

// PatchEmbed splits an image into non-overlapping patches, projects each to
// an embedding, prepends a learnable class token, and adds positional
// embeddings: (N, C, H, W) → (N, T+1, D) with T = (H/ps)·(W/ps). The
// projection is a ps×ps convolution of stride ps (tensor.Conv), whose output
// and gradient are (N, D, T).
type PatchEmbed struct {
	Proj   *Parameter // (D, C*ps*ps)
	Bias   *Parameter // (D)
	Cls    *Parameter // (D)
	PosEmb *Parameter // (T+1, D)

	C, PS, D, T int
	conv        *tensor.Conv // the last input's geometry and padded copy

	proj  *tensor.Tensor // (N, D, T)
	out   *tensor.Tensor
	dProj *tensor.Tensor // (N, D, T)
	dW    *tensor.Tensor
	dx    *tensor.Tensor
	noDx  bool // Backward skips the input gradient (see inputGradDropper)
}

// NewPatchEmbed constructs the embedding for images of (c, h, w) with square
// patch size ps and embedding dimension d.
func NewPatchEmbed(name string, r *tensor.RNG, c, h, w, ps, d int) *PatchEmbed {
	if h%ps != 0 || w%ps != 0 {
		panic("nn: image size must be divisible by patch size")
	}
	t := (h / ps) * (w / ps)
	patch := c * ps * ps
	return &PatchEmbed{
		Proj:   newParameter(name+".proj.weight", tensor.XavierInit(r, patch, d, d, patch), r),
		Bias:   newParameter(name+".proj.bias", tensor.New(d), r),
		Cls:    newParameter(name+".cls", tensor.Randn(r, 0.02, d), r),
		PosEmb: newParameter(name+".pos", tensor.Randn(r, 0.02, t+1, d), r),
		C:      c, PS: ps, D: d, T: t,
	}
}

// Forward implements Layer. It panics, naming the shapes, unless x is
// (N, C, H, W) with the layer's C channels and T patches: the convolution
// would otherwise read the weights at the wrong stride.
func (l *PatchEmbed) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != l.C || (x.Dim(2)/l.PS)*(x.Dim(3)/l.PS) != l.T {
		panic(fmt.Sprintf("nn: PatchEmbed input %v, want (N, %d, H, W) with (H/%d)·(W/%d) = %d patches",
			x.Shape(), l.C, l.PS, l.PS, l.T))
	}
	n, d, t := x.Dim(0), l.D, l.T
	l.conv = tensor.ConvFor(l.conv, x, d, l.PS, l.PS, l.PS, 0)
	l.proj = ensure(l.proj, n, d, t)
	l.conv.Forward(l.proj, x, l.Proj.W, l.Bias.W) // patch projection plus bias

	l.out = ensure(l.out, n, t+1, d)
	od, pd := l.out.Data(), l.proj.Data()
	cd, ed := l.Cls.W.Data(), l.PosEmb.W.Data()
	for s := 0; s < n; s++ {
		base := s * (t + 1) * d
		for j := 0; j < d; j++ {
			od[base+j] = cd[j] + ed[j]
		}
		for tk := 0; tk < t; tk++ {
			src := pd[s*d*t+tk:] // token tk's embedding, stride t
			dst := od[base+(tk+1)*d : base+(tk+2)*d]
			pos := ed[(tk+1)*d : (tk+2)*d]
			for j := range dst {
				dst[j] = src[j*t] + pos[j]
			}
		}
	}
	return l.out
}

// Backward implements Layer.
func (l *PatchEmbed) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, d, t := grad.Dim(0), l.D, l.T
	gd := grad.Data()
	cg, eg, bg := l.Cls.Grad.Data(), l.PosEmb.Grad.Data(), l.Bias.Grad.Data()
	l.dProj = ensure(l.dProj, n, d, t)
	dpd := l.dProj.Data()
	for s := 0; s < n; s++ {
		base := s * (t + 1) * d
		for j := 0; j < d; j++ {
			cg[j] += gd[base+j]
			eg[j] += gd[base+j]
		}
		for tk := 0; tk < t; tk++ {
			row := gd[base+(tk+1)*d : base+(tk+2)*d]
			pos := eg[(tk+1)*d : (tk+2)*d]
			dst := dpd[s*d*t+tk:] // token tk's gradient, stride t
			for j, v := range row {
				pos[j] += v
				bg[j] += v
				dst[j*t] = v
			}
		}
	}
	l.dW = ensure(l.dW, d, l.Proj.W.Dim(1))
	var dx *tensor.Tensor
	if !l.noDx {
		l.dx = ensure(l.dx, n, l.C, l.conv.H, l.conv.W)
		dx = l.dx
	}
	l.conv.Backward(l.dW, dx, l.dProj, l.Proj.W)
	tensor.AxpyInto(l.Proj.Grad, 1, l.dW)
	return dx
}

func (l *PatchEmbed) dropInputGrad() bool { l.noDx = true; return false }

// Params implements Layer.
func (l *PatchEmbed) Params() []*Parameter {
	return []*Parameter{l.Proj, l.Bias, l.Cls, l.PosEmb}
}

// TransformerBlock is a pre-norm transformer encoder block:
//
//	x = x + MHA(LN1(x)); x = x + MLP(LN2(x))
//
// with a GELU MLP of expansion factor mlpRatio.
type TransformerBlock struct {
	LN1  *LayerNorm
	Attn *MultiHeadAttention
	LN2  *LayerNorm
	FC1  *Linear
	Act  *GELU
	FC2  *Linear

	lastShape []int

	x1, out, dx1, dxOut *tensor.Tensor // (N, T, D)
	// Flat/shaped view headers retargeted with Rebind each step.
	hFlat, gradFlat *tensor.Tensor // (N*T, D)
	h4View, gmView  *tensor.Tensor // (N, T, D)
}

// NewTransformerBlock builds a block of width d with the given head count
// and MLP expansion ratio.
func NewTransformerBlock(name string, r *tensor.RNG, d, heads, mlpRatio int) *TransformerBlock {
	return &TransformerBlock{
		LN1:  NewLayerNorm(name+".ln1", d),
		Attn: NewMultiHeadAttention(name+".attn", r, d, heads),
		LN2:  NewLayerNorm(name+".ln2", d),
		FC1:  NewLinear(name+".mlp.fc1", r, d, d*mlpRatio),
		Act:  NewGELU(),
		FC2:  NewLinear(name+".mlp.fc2", r, d*mlpRatio, d),
	}
}

// Forward implements Layer.
func (l *TransformerBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	l.lastShape = append(l.lastShape[:0], n, t, d)
	a := l.Attn.Forward(l.LN1.Forward(x, train), train)
	l.x1 = ensure(l.x1, n, t, d)
	tensor.AddInto(l.x1, x, a)
	h := l.LN2.Forward(l.x1, train)
	l.hFlat = ensure(l.hFlat, n*t, d)
	l.hFlat.Rebind(h.Data())
	h2 := l.FC1.Forward(l.hFlat, train)
	h3 := l.Act.Forward(h2, train)
	h4 := l.FC2.Forward(h3, train)
	l.h4View = ensure(l.h4View, n, t, d)
	l.h4View.Rebind(h4.Data())
	l.out = ensure(l.out, n, t, d)
	tensor.AddInto(l.out, l.x1, l.h4View)
	return l.out
}

// Backward implements Layer.
func (l *TransformerBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, t, d := l.lastShape[0], l.lastShape[1], l.lastShape[2]
	// MLP branch.
	l.gradFlat = ensure(l.gradFlat, n*t, d)
	l.gradFlat.Rebind(grad.Data())
	gm := l.FC2.Backward(l.gradFlat)
	gm = l.Act.Backward(gm)
	gm = l.FC1.Backward(gm)
	l.gmView = ensure(l.gmView, n, t, d)
	l.gmView.Rebind(gm.Data())
	gn := l.LN2.Backward(l.gmView)
	l.dx1 = ensure(l.dx1, n, t, d)
	tensor.AddInto(l.dx1, grad, gn)
	// Attention branch.
	ga := l.Attn.Backward(l.dx1)
	ga = l.LN1.Backward(ga)
	l.dxOut = ensure(l.dxOut, n, t, d)
	tensor.AddInto(l.dxOut, l.dx1, ga)
	return l.dxOut
}

// Params implements Layer.
func (l *TransformerBlock) Params() []*Parameter {
	var ps []*Parameter
	ps = append(ps, l.LN1.Params()...)
	ps = append(ps, l.Attn.Params()...)
	ps = append(ps, l.LN2.Params()...)
	ps = append(ps, l.FC1.Params()...)
	ps = append(ps, l.FC2.Params()...)
	return ps
}

// TokenPool extracts the class token (index 0) from (N, T, D), producing
// (N, D) for the classifier head.
type TokenPool struct {
	lastShape []int
	out       *tensor.Tensor
	dx        *tensor.Tensor
}

// NewTokenPool returns a class-token pooling layer.
func NewTokenPool() *TokenPool { return &TokenPool{} }

// Forward implements Layer.
func (l *TokenPool) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	l.lastShape = append(l.lastShape[:0], n, t, d)
	l.out = ensure(l.out, n, d)
	xd, od := x.Data(), l.out.Data()
	for s := 0; s < n; s++ {
		copy(od[s*d:(s+1)*d], xd[s*t*d:s*t*d+d])
	}
	return l.out
}

// Backward implements Layer.
func (l *TokenPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, t, d := l.lastShape[0], l.lastShape[1], l.lastShape[2]
	l.dx = ensure(l.dx, n, t, d)
	l.dx.Zero()
	gd, dd := grad.Data(), l.dx.Data()
	for s := 0; s < n; s++ {
		copy(dd[s*t*d:s*t*d+d], gd[s*d:(s+1)*d])
	}
	return l.dx
}

// Params implements Layer.
func (l *TokenPool) Params() []*Parameter { return nil }
