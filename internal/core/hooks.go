package core

import (
	"pactrain/internal/collective"
	"pactrain/internal/compress"
	"pactrain/internal/ddp"
	"pactrain/internal/masktracker"
)

// hookEnv is the per-worker context hooks operate in. Hooks issue
// collectives against the cluster, which prices them under the config's
// collective algorithm (Config.Collective); the hook code itself is
// algorithm-agnostic. buildHook (schemes.go) constructs hooks from the
// scheme registry.
type hookEnv struct {
	cluster *collective.Cluster
	rank    int
	world   int
	log     *CommLog // non-nil only on rank 0 when recording

	// wireScale prices each logical bucket element as wireScale wire
	// elements, so a lite-twin bucket costs what the corresponding slice of
	// the full-size model's gradient would cost (DESIGN.md §1: convergence
	// comes from the lite twin, bytes-on-wire from the paper's model).
	wireScale float64
}

func (e *hookEnv) record(op CommOp) {
	if e.log != nil {
		e.log.Record(op)
	}
}

// scaleWire applies the profile scale to a wire format's per-element cost;
// fixed per-message headers are left untouched.
func (e *hookEnv) scaleWire(w collective.WireFormat) collective.WireFormat {
	if e.wireScale > 0 && e.wireScale != 1 {
		w.BytesPerElement *= e.wireScale
	}
	return w
}

// --- Dense hooks (all-reduce / PS transports) --------------------------------

// denseHook aggregates via a DenseCompressor: encode, sum payloads through
// the compressor's transport, decode.
type denseHook struct {
	env     *hookEnv
	comp    compress.DenseCompressor
	forcePS bool

	// bufs holds one payload buffer per bucket so steady-state iterations
	// reuse instead of allocate. Reuse is safe: every rank's payload is only
	// read inside the collective's rendezvous compute, which completes before
	// any rank can reach its next Sync of the same bucket.
	bufs map[int][]float32
}

// encode produces the bucket's payload, reusing the per-bucket buffer when
// the compressor supports it.
func (h *denseHook) encode(b *ddp.Bucket) []float32 {
	re, ok := h.comp.(compress.ReusableEncoder)
	if !ok {
		return h.comp.Encode(b.Flat)
	}
	if h.bufs == nil {
		h.bufs = make(map[int][]float32)
	}
	out := re.EncodeInto(b.Flat, h.bufs[b.Index])
	h.bufs[b.Index] = out
	return out
}

// Name implements ddp.Hook.
func (h *denseHook) Name() string {
	if h.forcePS {
		return "ps"
	}
	return h.comp.Name()
}

// Sync implements ddp.Hook.
func (h *denseHook) Sync(rank int, b *ddp.Bucket, localTime float64) float64 {
	payload := h.encode(b)
	wire := h.env.scaleWire(h.comp.Wire())
	var end float64
	if h.forcePS || h.comp.Transport() == compress.TransportPS {
		end = h.env.cluster.PSAggregateSum(rank, payload, wire, localTime)
		h.env.record(CommOp{Kind: OpPS, Elements: len(payload), Wire: wire,
			Bucket: b.Index, LaunchAt: localTime})
	} else {
		end = h.env.cluster.AllReduceSum(rank, payload, wire, localTime)
		h.env.record(CommOp{Kind: OpAllReduce, Elements: len(payload), Wire: wire,
			Bucket: b.Index, LaunchAt: localTime})
	}
	h.comp.Decode(payload, b.Flat)
	return end
}

// --- Sparse hooks (all-gather transport) -------------------------------------

// sparseHook aggregates via a SparseCompressor: each worker's selection is
// exchanged wholesale with all-gather and summed locally — the transport
// TopK and DGC require (Table 1).
type sparseHook struct {
	env     *hookEnv
	mk      func() compress.SparseCompressor
	perBkt  map[int]compress.SparseCompressor
	nameStr string

	// sizesBuf is reused for the per-rank payload-size scratch on ranks that
	// do not record (the comm log retains the slice it is handed, so rank 0
	// keeps allocating).
	sizesBuf []int
}

// sizesScratch returns an n-element size slice, reused when recording is off.
func (h *sparseHook) sizesScratch(n int) []int {
	if h.env.log != nil {
		return make([]int, n)
	}
	if cap(h.sizesBuf) < n {
		h.sizesBuf = make([]int, n)
	}
	return h.sizesBuf[:n]
}

func newSparseHook(env *hookEnv, mk func() compress.SparseCompressor) *sparseHook {
	h := &sparseHook{env: env, mk: mk, perBkt: make(map[int]compress.SparseCompressor)}
	h.nameStr = mk().Name()
	return h
}

// Name implements ddp.Hook.
func (h *sparseHook) Name() string { return h.nameStr }

// Sync implements ddp.Hook.
func (h *sparseHook) Sync(rank int, b *ddp.Bucket, localTime float64) float64 {
	comp := h.perBkt[b.Index]
	if comp == nil {
		comp = h.mk()
		h.perBkt[b.Index] = comp
	}
	payload := comp.Encode(b.Flat)
	wire := h.env.scaleWire(comp.Wire())
	all, end := h.env.cluster.AllGatherSparse(rank, payload, wire, localTime)
	for i := range b.Flat {
		b.Flat[i] = 0
	}
	sizes := h.sizesScratch(len(all))
	for i, p := range all {
		sizes[i] = len(p.Values)
		comp.DecodeSum(p, b.Flat)
	}
	h.env.record(CommOp{Kind: OpAllGather, Sizes: sizes, Wire: wire,
		Bucket: b.Index, LaunchAt: localTime})
	return end
}

// --- SCC baseline hooks -------------------------------------------------------

// omniReduceHook streams non-zero gradient blocks through an aggregator
// (OmniReduce-style, §II). Effective only when blocks are actually zero —
// i.e. under pruning+GSE — and still pays per-block headers and the union
// fan-out.
type omniReduceHook struct {
	env       *hookEnv
	blockSize int
}

// Name implements ddp.Hook.
func (*omniReduceHook) Name() string { return "omnireduce" }

// Sync implements ddp.Hook.
func (h *omniReduceHook) Sync(rank int, b *ddp.Bucket, localTime float64) float64 {
	scale := h.env.wireScale
	if scale <= 0 {
		scale = 1
	}
	own, union, end := h.env.cluster.AllReduceBlockSparse(rank, b.Flat, h.blockSize, scale, localTime)
	_ = own
	blocks := make([]int, h.env.world)
	for i := range blocks {
		blocks[i] = union // conservative per-worker record; exact counts live in cluster stats
	}
	h.env.record(CommOp{Kind: OpBlockSparse, Blocks: blocks, Union: union, BlockSz: h.blockSize,
		Scale: scale, Bucket: b.Index, LaunchAt: localTime})
	return end
}

// zenHook exchanges each worker's exact non-zero coordinates via a balanced
// sparse all-gather (Zen-style, §II). Wire cost is COO (8 B/non-zero), so
// it beats dense only below 50% density.
type zenHook struct {
	env *hookEnv
}

// Name implements ddp.Hook.
func (*zenHook) Name() string { return "zen" }

// Sync implements ddp.Hook.
func (h *zenHook) Sync(rank int, b *ddp.Bucket, localTime float64) float64 {
	// Count first so the payload is allocated once at its exact size — a
	// fresh pair each round, because the rendezvous lets peers read a payload
	// after its owner moved on.
	nnz := 0
	for _, v := range b.Flat {
		if v != 0 {
			nnz++
		}
	}
	vals := make([]float32, 0, nnz)
	idx := make([]int32, 0, nnz)
	for i, v := range b.Flat {
		if v != 0 {
			vals = append(vals, v)
			idx = append(idx, int32(i))
		}
	}
	payload := collective.SparsePayload{Values: vals, Indices: idx}
	wire := h.env.scaleWire(collective.WireSparse)
	all, end := h.env.cluster.AllGatherSparse(rank, payload, wire, localTime)
	for i := range b.Flat {
		b.Flat[i] = 0
	}
	sizes := make([]int, len(all))
	for i, p := range all {
		sizes[i] = len(p.Values)
		for j, id := range p.Indices {
			b.Flat[id] += p.Values[j]
		}
	}
	h.env.record(CommOp{Kind: OpAllGather, Sizes: sizes, Wire: wire,
		Bucket: b.Index, LaunchAt: localTime})
	return end
}

// --- The PacTrain hook --------------------------------------------------------

// unstableFullSync is the synchronization step the PacTrain-family hooks
// (pacTrainHook, adaptiveHook) share while a bucket's sparsity pattern is
// unstable (Algorithm 1 lines 11–12): pay the owed bitmap re-share, run a
// full fp32 all-reduce, and feed the tracker with the aggregated gradient —
// identical bytes on every worker keep the trackers, and therefore the
// stable/unstable branch, in lockstep across ranks. Both hooks delegate
// here so the bit-exactness contract between them
// (TestAdaptiveSingleCandidateMatchesPacTrainTernary) is structural, not
// copy-discipline.
func unstableFullSync(env *hookEnv, tr *masktracker.Tracker, rank int, b *ddp.Bucket,
	payBitmap bool, localTime float64) (float64, masktracker.Observation) {
	var end float64
	if payBitmap {
		bitWire := env.scaleWire(collective.BitmapWire)
		end = env.cluster.BroadcastScaledBitmap(rank, 0, b.Elements(), bitWire, localTime)
		env.record(CommOp{Kind: OpBitmapBroadcast, Elements: b.Elements(), Wire: bitWire,
			Bucket: b.Index, LaunchAt: localTime})
		localTime = end
	}
	fullWire := env.scaleWire(collective.WireFP32)
	end = env.cluster.AllReduceSum(rank, b.Flat, fullWire, localTime)
	env.record(CommOp{Kind: OpAllReduce, Elements: b.Elements(), Wire: fullWire,
		Bucket: b.Index, LaunchAt: localTime})
	return end, tr.Observe(b.Flat)
}

// pacTrainHook implements Algorithm 1's synchronization step. Per bucket it
// maintains a Mask Tracker fed with the *aggregated* gradient (identical on
// every worker, so all workers take the same branch without extra
// consensus traffic):
//
//   - while the sparsity pattern is unstable → full fp32 all-reduce, plus a
//     one-off bitmap broadcast whenever the pattern changed (re-sharing the
//     global mask knowledge);
//   - once stable → reformat the sparse gradient into a compact dense
//     tensor via the shared mask and all-reduce only the NNZ coordinates
//     (optionally ternarized, §III-D).
type pacTrainHook struct {
	env     *hookEnv
	ternary bool
	seed    uint64
	window  int

	trackers map[int]*masktracker.Tracker
	compacts map[int]*compress.MaskCompact
	// pendingBitmap marks buckets whose mask changed last iteration and owe
	// a bitmap broadcast with the next full sync.
	pendingBitmap map[int]bool
	observed      map[int]bool

	// bufs holds per-bucket compact payload buffers (same safety argument as
	// denseHook.bufs).
	bufs map[int][]float32

	// Telemetry.
	CompactSyncs int
	FullSyncs    int
}

// compactPayload encodes through the installed mask into the bucket's
// reusable buffer.
func (h *pacTrainHook) compactPayload(mc *compress.MaskCompact, b *ddp.Bucket) []float32 {
	if h.bufs == nil {
		h.bufs = make(map[int][]float32)
	}
	out := mc.EncodeInto(b.Flat, h.bufs[b.Index])
	h.bufs[b.Index] = out
	return out
}

func newPacTrainHook(env *hookEnv, cfg *Config, ternary bool, seed uint64) *pacTrainHook {
	return &pacTrainHook{
		env: env, ternary: ternary, seed: seed, window: cfg.StableWindow,
		trackers:      make(map[int]*masktracker.Tracker),
		compacts:      make(map[int]*compress.MaskCompact),
		pendingBitmap: make(map[int]bool),
		observed:      make(map[int]bool),
	}
}

// Name implements ddp.Hook.
func (h *pacTrainHook) Name() string {
	if h.ternary {
		return "pactrain-ternary"
	}
	return "pactrain"
}

// Sync implements ddp.Hook.
func (h *pacTrainHook) Sync(rank int, b *ddp.Bucket, localTime float64) float64 {
	tr := h.trackers[b.Index]
	if tr == nil {
		tr = masktracker.New(h.window)
		h.trackers[b.Index] = tr
	}

	if tr.Stable() {
		mc := h.compacts[b.Index]
		if mc == nil || !mc.HasMask() {
			mc = compress.NewMaskCompact(h.ternary, h.seed*131+uint64(b.Index))
			mc.SetMask(tr.Indices(), b.Elements())
			h.compacts[b.Index] = mc
		}
		payload := h.compactPayload(mc, b)
		wire := h.env.scaleWire(mc.Wire())
		end := h.env.cluster.AllReduceSum(rank, payload, wire, localTime)
		mc.Decode(payload, b.Flat)
		h.env.record(CommOp{Kind: OpAllReduce, Elements: len(payload), Wire: wire,
			Bucket: b.Index, LaunchAt: localTime})
		h.CompactSyncs++
		// On the compact path the support is the mask by construction —
		// GSE pins local supports inside it and Decode reproduces exactly
		// it — so there is nothing new to observe. (Observing the decoded
		// values would be wrong under ternary quantization, which zeroes
		// in-mask coordinates at random.)
		return end
	}

	// Unstable: full synchronization, paying the mask re-share if the
	// pattern moved last iteration (unstableFullSync).
	end, obs := unstableFullSync(h.env, tr, rank, b, h.pendingBitmap[b.Index], localTime)
	h.compacts[b.Index] = nil // any cached mask is now suspect
	h.FullSyncs++
	h.pendingBitmap[b.Index] = obs.Changed && h.observed[b.Index]
	h.observed[b.Index] = true
	return end
}

// NotifyMaskInvalidated discards all tracker and compaction state. The
// trainer calls it at the pruning step (Algorithm 1 line 2): the gradient
// support is about to shrink, so unions learned from dense warm-up
// gradients no longer describe the sparsity pattern. Every worker calls it
// at the same iteration, so the branch lockstep is preserved, and the next
// stabilization pays the bitmap re-share as usual.
func (h *pacTrainHook) NotifyMaskInvalidated() {
	for _, tr := range h.trackers {
		tr.Reset()
	}
	h.compacts = make(map[int]*compress.MaskCompact)
	h.pendingBitmap = make(map[int]bool)
	h.observed = make(map[int]bool)
}

// StableFraction reports the fraction of bucket syncs that used the compact
// path.
func (h *pacTrainHook) StableFraction() float64 {
	total := h.CompactSyncs + h.FullSyncs
	if total == 0 {
		return 0
	}
	return float64(h.CompactSyncs) / float64(total)
}
