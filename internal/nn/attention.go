package nn

import (
	"math"

	"pactrain/internal/tensor"
)

// MultiHeadAttention implements standard scaled-dot-product multi-head
// self-attention over (N, T, D) token tensors, the core of the ViT workload
// in the paper's evaluation. D must be divisible by the head count.
//
// Both passes loop over samples. Every per-sample temporary lives in that
// sample's mhaScratch slot, and backward computes per-sample weight-gradient
// partials and then folds them into the shared parameter gradients in an
// ascending-sample pass.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Parameter
	Bq, Bk, Bv, Bo *Parameter

	D, Heads, Dh int

	lastX   *tensor.Tensor
	scratch []*mhaScratch // one slot per sample, reused across steps
	out     *tensor.Tensor
	dx      *tensor.Tensor

	// Wqᵀ, Wkᵀ, Wvᵀ and Woᵀ, written once per Backward for every sample's
	// products by the transposed weights (tensor.MatMulTransBHeldInto).
	wT [4]*tensor.Tensor
}

// mhaScratch holds every per-sample temporary of one attention
// forward+backward, so steady-state steps allocate nothing. The xs/gs/dxs
// view headers are retargeted with Rebind each step.
type mhaScratch struct {
	xs, gs, dxs *tensor.Tensor // (T, D) views into batch tensors

	q, k, v, o, y  *tensor.Tensor   // (T, D)
	attn           []*tensor.Tensor // per head (T, T)
	qh, kh, vh, oh *tensor.Tensor   // (T, Dh)

	do, dq, dk, dv     *tensor.Tensor // (T, D)
	doh, dVh, dQh, dKh *tensor.Tensor // (T, Dh)
	dAttn              *tensor.Tensor // (T, T)
	dxPart             *tensor.Tensor // (T, D)

	// Per-sample weight-gradient partials, folded serially into the shared
	// parameter gradients.
	dWq, dWk, dWv, dWo *tensor.Tensor // (D, D)
}

func newMHAScratch(t, d, heads, dh int) *mhaScratch {
	sc := &mhaScratch{
		xs: tensor.New(t, d), gs: tensor.New(t, d), dxs: tensor.New(t, d),
		q: tensor.New(t, d), k: tensor.New(t, d), v: tensor.New(t, d),
		o: tensor.New(t, d), y: tensor.New(t, d),
		qh: tensor.New(t, dh), kh: tensor.New(t, dh), vh: tensor.New(t, dh), oh: tensor.New(t, dh),
		do: tensor.New(t, d), dq: tensor.New(t, d), dk: tensor.New(t, d), dv: tensor.New(t, d),
		doh: tensor.New(t, dh), dVh: tensor.New(t, dh), dQh: tensor.New(t, dh), dKh: tensor.New(t, dh),
		dAttn: tensor.New(t, t), dxPart: tensor.New(t, d),
		dWq: tensor.New(d, d), dWk: tensor.New(d, d), dWv: tensor.New(d, d), dWo: tensor.New(d, d),
	}
	sc.attn = make([]*tensor.Tensor, heads)
	for h := range sc.attn {
		sc.attn[h] = tensor.New(t, t)
	}
	return sc
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

// ensureScratch sizes the per-sample scratch pool for batch size n and
// sequence length t.
func (l *MultiHeadAttention) ensureScratch(n, t int) {
	if len(l.scratch) >= n && l.scratch[0].q.Dim(0) == t {
		return
	}
	l.scratch = make([]*mhaScratch, n)
	for s := range l.scratch {
		l.scratch[s] = newMHAScratch(t, l.D, l.Heads, l.Dh)
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

// forwardSample runs attention for one sample into its scratch slot and the
// sample's slice of the output tensor.
func (l *MultiHeadAttention) forwardSample(x *tensor.Tensor, scale float32, s int) {
	t, d := x.Dim(1), x.Dim(2)
	sc := l.scratch[s]
	sc.xs.Rebind(x.Data()[s*t*d : (s+1)*t*d])
	projectInto(sc.q, sc.xs, l.Wq, l.Bq)
	projectInto(sc.k, sc.xs, l.Wk, l.Bk)
	projectInto(sc.v, sc.xs, l.Wv, l.Bv)
	sc.o.Zero()
	for h := 0; h < l.Heads; h++ {
		from := h * l.Dh
		colBlockInto(sc.qh, sc.q, from)
		colBlockInto(sc.kh, sc.k, from)
		colBlockInto(sc.vh, sc.v, from)
		scores := sc.attn[h]
		tensor.MatMulTransBInto(scores, sc.qh, sc.kh)
		scores.ScaleInPlace(scale)
		softmaxRows(scores)
		tensor.MatMulInto(sc.oh, scores, sc.vh)
		addColBlock(sc.o, sc.oh, from)
	}
	projectInto(sc.y, sc.o, l.Wo, l.Bo)
	copy(l.out.Data()[s*t*d:(s+1)*t*d], sc.y.Data())
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

	// Phase 1: per-sample dx slices and per-sample weight-gradient partials.
	for s := 0; s < n; s++ {
		l.backwardSample(grad, scale, s)
	}

	// Phase 2 (ascending samples): fold the partials into the shared
	// parameter gradients.
	for s := 0; s < n; s++ {
		sc := l.scratch[s]
		tensor.AxpyInto(l.Wo.Grad, 1, sc.dWo)
		accumBias(l.Bo.Grad, sc.gs)
		tensor.AxpyInto(l.Wq.Grad, 1, sc.dWq)
		accumBias(l.Bq.Grad, sc.dq)
		tensor.AxpyInto(l.Wk.Grad, 1, sc.dWk)
		accumBias(l.Bk.Grad, sc.dk)
		tensor.AxpyInto(l.Wv.Grad, 1, sc.dWv)
		accumBias(l.Bv.Grad, sc.dv)
	}
	return l.dx
}

// backwardSample computes one sample's gradients: dx slice plus the
// per-sample dW partials left in scratch for the serial fold.
func (l *MultiHeadAttention) backwardSample(grad *tensor.Tensor, scale float32, s int) {
	t, d := grad.Dim(1), grad.Dim(2)
	sc := l.scratch[s]
	sc.gs.Rebind(grad.Data()[s*t*d : (s+1)*t*d])
	sc.dxs.Rebind(l.dx.Data()[s*t*d : (s+1)*t*d])
	sc.xs.Rebind(l.lastX.Data()[s*t*d : (s+1)*t*d])

	// Output projection: y = o·Wo + bo.
	tensor.MatMulTransAInto(sc.dWo, sc.o, sc.gs)
	tensor.MatMulTransBHeldInto(sc.do, sc.gs, l.Wo.W, l.wT[3])

	sc.dq.Zero()
	sc.dk.Zero()
	sc.dv.Zero()
	for h := 0; h < l.Heads; h++ {
		from := h * l.Dh
		colBlockInto(sc.doh, sc.do, from)
		attn := sc.attn[h]
		colBlockInto(sc.vh, sc.v, from)
		colBlockInto(sc.qh, sc.q, from)
		colBlockInto(sc.kh, sc.k, from)

		// oh = attn · vh.
		tensor.MatMulTransBInto(sc.dAttn, sc.doh, sc.vh)
		tensor.MatMulTransAInto(sc.dVh, attn, sc.doh)

		// Softmax backward per row: ds = A ⊙ (dA − Σ(dA⊙A)).
		ad, dad := attn.Data(), sc.dAttn.Data()
		for i := 0; i < t; i++ {
			var dot float64
			for j := 0; j < t; j++ {
				dot += float64(dad[i*t+j]) * float64(ad[i*t+j])
			}
			for j := 0; j < t; j++ {
				dad[i*t+j] = ad[i*t+j] * (dad[i*t+j] - float32(dot))
			}
		}
		sc.dAttn.ScaleInPlace(scale)

		// scores = qh·khᵀ.
		tensor.MatMulInto(sc.dQh, sc.dAttn, sc.kh)
		tensor.MatMulTransAInto(sc.dKh, sc.dAttn, sc.qh)

		addColBlock(sc.dq, sc.dQh, from)
		addColBlock(sc.dk, sc.dKh, from)
		addColBlock(sc.dv, sc.dVh, from)
	}

	// Input projections: q = x·Wq + bq etc. Weight partials stay in scratch;
	// the dx slice accumulates its three parts here (zero + q + k + v, the
	// scalar order).
	sc.dxs.Zero()
	tensor.MatMulTransAInto(sc.dWq, sc.xs, sc.dq)
	tensor.MatMulTransBHeldInto(sc.dxPart, sc.dq, l.Wq.W, l.wT[0])
	tensor.AxpyInto(sc.dxs, 1, sc.dxPart)
	tensor.MatMulTransAInto(sc.dWk, sc.xs, sc.dk)
	tensor.MatMulTransBHeldInto(sc.dxPart, sc.dk, l.Wk.W, l.wT[1])
	tensor.AxpyInto(sc.dxs, 1, sc.dxPart)
	tensor.MatMulTransAInto(sc.dWv, sc.xs, sc.dv)
	tensor.MatMulTransBHeldInto(sc.dxPart, sc.dv, l.Wv.W, l.wT[2])
	tensor.AxpyInto(sc.dxs, 1, sc.dxPart)
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
// embeddings: (N, C, H, W) → (N, T+1, D) with T = (H/ps)·(W/ps).
type PatchEmbed struct {
	Proj   *Parameter // (D, C*ps*ps)
	Bias   *Parameter // (D)
	Cls    *Parameter // (D)
	PosEmb *Parameter // (T+1, D)

	C, PS, D, T int

	lastCols  *tensor.Tensor
	lastShape []int

	proj  *tensor.Tensor
	out   *tensor.Tensor
	dProj *tensor.Tensor
	dW    *tensor.Tensor
	dcols *tensor.Tensor
	dx    *tensor.Tensor
	noDx  bool // Backward skips dcols and col2im (see inputGradDropper)
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

// Forward implements Layer.
func (l *PatchEmbed) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n := x.Dim(0)
	l.lastShape = append(l.lastShape[:0], x.Shape()...)
	patch := l.Proj.W.Dim(1)
	l.lastCols = ensure(l.lastCols, n*l.T, patch)
	tensor.Im2ColInto(l.lastCols, x, l.PS, l.PS, l.PS, 0) // (N*T, patch)
	l.proj = ensure(l.proj, n*l.T, l.D)
	tensor.MatMulTransBInto(l.proj, l.lastCols, l.Proj.W)

	l.out = ensure(l.out, n, l.T+1, l.D)
	od, pd := l.out.Data(), l.proj.Data()
	bd, cd, ed := l.Bias.W.Data(), l.Cls.W.Data(), l.PosEmb.W.Data()
	for s := 0; s < n; s++ {
		base := s * (l.T + 1) * l.D
		for j := 0; j < l.D; j++ {
			od[base+j] = cd[j] + ed[j]
		}
		for tk := 0; tk < l.T; tk++ {
			src := pd[(s*l.T+tk)*l.D : (s*l.T+tk+1)*l.D]
			dst := od[base+(tk+1)*l.D : base+(tk+2)*l.D]
			pos := ed[(tk+1)*l.D : (tk+2)*l.D]
			for j := range dst {
				dst[j] = src[j] + bd[j] + pos[j]
			}
		}
	}
	return l.out
}

// Backward implements Layer.
func (l *PatchEmbed) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	gd := grad.Data()
	cg, eg, bg := l.Cls.Grad.Data(), l.PosEmb.Grad.Data(), l.Bias.Grad.Data()
	l.dProj = ensure(l.dProj, n*l.T, l.D)
	dpd := l.dProj.Data()
	for s := 0; s < n; s++ {
		base := s * (l.T + 1) * l.D
		for j := 0; j < l.D; j++ {
			cg[j] += gd[base+j]
			eg[j] += gd[base+j]
		}
		for tk := 0; tk < l.T; tk++ {
			row := gd[base+(tk+1)*l.D : base+(tk+2)*l.D]
			pos := eg[(tk+1)*l.D : (tk+2)*l.D]
			dst := dpd[(s*l.T+tk)*l.D : (s*l.T+tk+1)*l.D]
			for j, v := range row {
				pos[j] += v
				bg[j] += v
				dst[j] = v
			}
		}
	}
	// dW = dProjᵀ × cols → (D, patch).
	l.dW = ensure(l.dW, l.D, l.Proj.W.Dim(1))
	tensor.MatMulTransAInto(l.dW, l.dProj, l.lastCols)
	tensor.AxpyInto(l.Proj.Grad, 1, l.dW)
	if l.noDx {
		return nil
	}
	// dcols = dProj × W.
	l.dcols = ensure(l.dcols, n*l.T, l.Proj.W.Dim(1))
	tensor.MatMulInto(l.dcols, l.dProj, l.Proj.W)
	h, w := l.lastShape[2], l.lastShape[3]
	l.dx = ensure(l.dx, n, l.C, h, w)
	tensor.Col2ImInto(l.dx, l.dcols, l.PS, l.PS, l.PS, 0)
	return l.dx
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
