package core

import (
	"sync"

	"pactrain/internal/adaptive"
	"pactrain/internal/collective"
	"pactrain/internal/compress"
	"pactrain/internal/ddp"
	"pactrain/internal/masktracker"
	"pactrain/internal/netsim"
	"pactrain/internal/tensor"
)

// hookEnv is the per-worker context hooks operate in. Hooks move bytes
// through the cluster, a data plane only, and every hook ends in commit,
// which prices its op through CostOp — the pricer every replay uses — under
// the config's collective algorithm (Config.Collective); the hook code
// itself is algorithm-agnostic. buildHook (schemes.go) constructs hooks from
// the scheme registry. Decode, average and Mask Tracker observation run once
// per cluster in a collective's Finish (DESIGN.md §4).
type hookEnv struct {
	cluster *collective.Cluster
	rank    int
	world   int
	// pricer prices every op under the run's algorithm on the workers'
	// hosts; Run builds one, shared by every rank. The adaptive controller
	// quotes with the same algorithm, fabric and hosts.
	pricer   *collective.Pricer
	algo     collective.Algorithm
	fabric   *netsim.Fabric
	hosts    []netsim.NodeID // the workers' hosts in rank order, read-only
	log      *CommLog        // rank 0's; nil on every other rank
	stats    *Stats          // rank 0's Result.Stats; nil on every other rank
	trackers *sync.Map       // the run's sharedTrackers by {generation, bucket}

	// wireScale prices each logical bucket element as wireScale wire
	// elements, so a lite-twin bucket costs what the corresponding slice of
	// the full-size model's gradient would cost (DESIGN.md §1: convergence
	// comes from the lite twin, bytes-on-wire from the paper's model).
	wireScale float64
}

// WireScale is the lite twin's wire scale (DESIGN.md §1): the full-size
// profile's parameter count over the twin's, or 1 when either is unknown.
// The trainer calls it with the model's parameter count and the audit's
// quoter with the recorded buckets' element total; the buckets tile every
// parameter, so the two agree.
func WireScale(profileParams int64, liteParams int) float64 {
	if profileParams <= 0 || liteParams <= 0 {
		return 1
	}
	return float64(profileParams) / float64(liteParams)
}

// commit launches op at t, the synchronized launch every rank's clockWalk
// derives, prices it as every replay does and returns its end. Rank 0
// records the op and adds it to the run's Stats.
func (e *hookEnv) commit(op CommOp, t float64) float64 {
	op.LaunchAt = t
	end := t + CostOp(op, e.pricer, t)
	if e.log != nil {
		e.log.Record(op)
		e.stats.add(op, e.world, end-t)
	}
	return end
}

// scaleWire applies the profile scale to a wire format's per-element cost;
// fixed per-message headers are left untouched.
func (e *hookEnv) scaleWire(w collective.WireFormat) collective.WireFormat {
	if e.wireScale > 0 && e.wireScale != 1 {
		w.BytesPerElement *= e.wireScale
	}
	return w
}

// average is every hook's Finish: decode (a compressor's Decode; nil when the
// payload is the bucket) writes the bucket, then 1/World scales it.
func (e *hookEnv) average(decode collective.Finish) collective.Finish {
	return func(sum, bucket []float32) {
		if decode == nil {
			copy(bucket, sum)
		} else {
			decode(sum, bucket)
		}
		tensor.Scale(bucket, 1/float32(e.world))
	}
}

// allReduce is the one all-reduce step under every scheme: sum payload
// across the ranks, decode and average it once, and commit the op priced as
// wire. decision is the adaptive controller's tag ("" when nothing was
// decided).
func (e *hookEnv) allReduce(b *ddp.Bucket, payload []float32, wire collective.WireFormat, decision string, t float64, decode collective.Finish) float64 {
	e.cluster.AllReduce(e.rank, payload, b.Flat, e.average(decode))
	return e.commit(CommOp{Kind: OpAllReduce, Elements: len(payload), Wire: e.scaleWire(wire),
		Decision: decision, Bucket: b.Index}, t)
}

// allGather is the one all-gather step under every scheme: exchange every
// rank's COO payload, rebuild the bucket once as their sum in rank order and
// average it (collective.AllGatherSum), and commit the op on the per-rank
// sizes. Callers may reuse the payload: no peer reads it after the
// rendezvous.
func (e *hookEnv) allGather(b *ddp.Bucket, payload collective.SparsePayload, wire collective.WireFormat, decision string, t float64) float64 {
	sizes := e.cluster.AllGatherSum(e.rank, payload, b.Flat, e.average(nil))
	return e.commit(CommOp{Kind: OpAllGather, Sizes: sizes, Wire: e.scaleWire(wire),
		Decision: decision, Bucket: b.Index}, t)
}

// --- Dense hooks (all-reduce / PS transports) --------------------------------

// denseHook aggregates via a DenseCompressor: encode, sum payloads through
// the compressor's transport, decode once.
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

// Sync implements ddp.Hook.
func (h *denseHook) Sync(b *ddp.Bucket, localTime float64) float64 {
	if h.bufs == nil {
		h.bufs = make(map[int][]float32)
	}
	payload := h.comp.EncodeInto(b.Flat, h.bufs[b.Index])
	h.bufs[b.Index] = payload
	if h.forcePS || h.comp.Transport() == compress.TransportPS {
		// The parameter server moves the all-reduce's bytes; only its
		// pricing, the incast onto rank 0's host, differs.
		h.env.cluster.AllReduce(h.env.rank, payload, b.Flat, h.env.average(h.comp.Decode))
		return h.env.commit(CommOp{Kind: OpPS, Elements: len(payload), Wire: h.env.scaleWire(h.comp.Wire()),
			Bucket: b.Index}, localTime)
	}
	return h.env.allReduce(b, payload, h.comp.Wire(), "", localTime, h.comp.Decode)
}

// --- Sparse hooks (all-gather transport) -------------------------------------

// sparseHook aggregates via a SparseCompressor: each worker's selection is
// exchanged wholesale with all-gather and summed locally — the transport
// TopK and DGC require (Table 1).
type sparseHook struct {
	env    *hookEnv
	mk     func() compress.SparseCompressor
	perBkt map[int]compress.SparseCompressor
}

// Sync implements ddp.Hook.
func (h *sparseHook) Sync(b *ddp.Bucket, localTime float64) float64 {
	comp := h.perBkt[b.Index]
	if comp == nil {
		comp = h.mk()
		h.perBkt[b.Index] = comp
	}
	return h.env.allGather(b, comp.Encode(b.Flat), comp.Wire(), "", localTime)
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

// Sync implements ddp.Hook.
func (h *omniReduceHook) Sync(b *ddp.Bucket, localTime float64) float64 {
	scale := h.env.wireScale
	if scale <= 0 {
		scale = 1
	}
	blocks, union := h.env.cluster.AllReduceBlockSparse(h.env.rank, b.Flat, h.blockSize, h.env.average(nil))
	return h.env.commit(CommOp{Kind: OpBlockSparse, Blocks: blocks, Union: union, BlockSz: h.blockSize,
		Scale: scale, Bucket: b.Index}, localTime)
}

// zenHook exchanges each worker's exact non-zero coordinates via a balanced
// sparse all-gather (Zen-style, §II). Wire cost is COO (8 B/non-zero), so
// it beats dense only below 50% density.
type zenHook struct {
	env *hookEnv
	// bufs holds one payload per bucket, reused every round (see allGather).
	bufs map[int]collective.SparsePayload
}

// Sync implements ddp.Hook.
func (h *zenHook) Sync(b *ddp.Bucket, localTime float64) float64 {
	if h.bufs == nil {
		h.bufs = make(map[int]collective.SparsePayload)
	}
	p := h.bufs[b.Index]
	p.Values, p.Indices = p.Values[:0], p.Indices[:0]
	for i, v := range b.Flat {
		if v != 0 {
			p.Values = append(p.Values, v)
			p.Indices = append(p.Indices, int32(i))
		}
	}
	h.bufs[b.Index] = p
	return h.env.allGather(b, p, collective.WireSparse, "", localTime)
}

// --- The PacTrain hook --------------------------------------------------------

// pacTrainHook is Algorithm 1's synchronization step, the one
// implementation under the pactrain, pactrain-ternary and adaptive schemes.
// Per bucket it consults a Mask Tracker fed with the *aggregated* gradient
// (identical on every worker, so one tracker per bucket serves every rank and
// all ranks take the same branch without extra consensus traffic):
//
//   - while the sparsity pattern is unstable → full fp32 all-reduce, plus a
//     one-off bitmap broadcast whenever the pattern changed (re-sharing the
//     global mask knowledge);
//   - once stable → send through the shared mask in one of the four
//     adaptive.Format* wire formats: the scheme's constant (mask-compact
//     for pactrain, mask-compact-ternary for pactrain-ternary, §III-D), or,
//     for adaptive, whatever the cost-model controller picks this round.
//
// A fixed format is the adaptive scheme with one candidate, minus the
// controller: ctrl is nil, nothing is priced, and recorded ops carry no
// Decision tag. With a controller, every input to a decision — bucket size,
// the tracker's mask, the synchronized simulated clock — is
// replica-identical, so all ranks pick the same format with zero consensus
// traffic.
type pacTrainHook struct {
	env    *hookEnv
	format string               // the fixed stable-path format; unused when ctrl != nil
	ctrl   *adaptive.Controller // nil for the fixed-format schemes
	seed   uint64
	window int
	gen    int // mask generation: NotifyMaskInvalidated calls so far

	buckets map[int]*pacBucket

	// Telemetry.
	CompactSyncs int // stable rounds (sent through the mask, or controller-driven)
	FullSyncs    int // forced full syncs while unstable
}

// pacBucket is one rank's view of a bucket's Algorithm 1 state.
type pacBucket struct {
	mask    *sharedTracker
	compact *compress.MaskCompact // this rank's encoder over the stable mask
	// buf is the compact or index-list payload buffer (see denseHook.bufs).
	buf []float32
}

// sharedTracker is one bucket's Mask Tracker for one mask generation (between
// NotifyMaskInvalidated calls), shared by every rank's hook. Only observe,
// the unstable round's Finish, writes it; ranks read it between collectives.
type sharedTracker struct {
	tracker      *masktracker.Tracker
	indices      []int32 // the retained coordinates once stable, read-only
	owesBitmap   bool    // the mask changed last round: re-share it next full sync
	observations int
}

// observe feeds the aggregated gradient to the tracker and passes it on.
func (t *sharedTracker) observe(sum, bucket []float32) {
	obs := t.tracker.Observe(sum)
	t.owesBitmap = obs.Changed && t.observations > 0
	t.observations++
	if obs.Stable {
		t.indices = t.tracker.Indices()
	}
	copy(bucket, sum)
}

// newPacTrainHook builds the hook: with a nil ctrl the stable path always
// sends in format; with a controller (newController) format is ignored.
func newPacTrainHook(env *hookEnv, cfg *Config, format string, ctrl *adaptive.Controller, seed uint64) *pacTrainHook {
	return &pacTrainHook{env: env, format: format, ctrl: ctrl, seed: seed, window: cfg.StableWindow,
		buckets: make(map[int]*pacBucket)}
}

// newController builds the adaptive scheme's cost-model controller over
// cfg.AdaptCandidates, pricing on the algorithm, fabric and hosts the
// worker's ops are priced on.
func newController(cfg *Config, env *hookEnv) *adaptive.Controller {
	return adaptive.New(adaptive.Options{
		Margin:     cfg.AdaptMargin,
		Dwell:      cfg.AdaptDwell,
		Candidates: cfg.AdaptCandidates,
		Algorithm:  env.algo,
		Fabric:     env.fabric,
		Hosts:      env.hosts,
		WireScale:  env.wireScale,
	})
}

// Sync implements ddp.Hook.
func (h *pacTrainHook) Sync(b *ddp.Bucket, localTime float64) float64 {
	st := h.buckets[b.Index]
	if st == nil {
		mask, _ := h.env.trackers.LoadOrStore([2]int{h.gen, b.Index}, &sharedTracker{tracker: masktracker.New(h.window)})
		st = &pacBucket{mask: mask.(*sharedTracker)}
		h.buckets[b.Index] = st
	}

	if st.mask.tracker.Stable() {
		mc := st.compact
		if mc == nil {
			mc = compress.NewMaskCompact(false, h.seed*131+uint64(b.Index))
			mc.SetMask(st.mask.indices, b.Elements())
			st.compact = mc
		}
		format, decision := h.format, ""
		if h.ctrl != nil {
			// localTime is the bucket's true launch time: every rank's clock
			// walk derives the same barrier before calling Sync, so every
			// rank prices the candidates at the same synchronized instant
			// even though their compute clocks have diverged.
			format = h.ctrl.Decide(b.Index, b.Elements(), mc.NNZ(), localTime).Format
			decision = format
		}
		h.CompactSyncs++
		switch format {
		case adaptive.FormatDense:
			return h.env.allReduce(b, b.Flat, collective.WireFP32, decision, localTime, nil)

		case adaptive.FormatCompact, adaptive.FormatCompactTernary:
			mc.Ternary = format == adaptive.FormatCompactTernary
			st.buf = mc.EncodeInto(b.Flat, st.buf)
			// The support is the mask by construction — GSE pins local
			// supports inside it and Decode reproduces exactly it — so there
			// is nothing new to observe. (Observing the decoded values would
			// be wrong under ternary quantization, which zeroes in-mask
			// coordinates at random.) Every rank's mask is the shared one, so
			// whichever rank's Decode runs writes the same bucket.
			return h.env.allReduce(b, st.buf, mc.Wire(), decision, localTime, mc.Decode)

		case adaptive.FormatIndexList:
			// Ship exactly the in-mask coordinates (zeros included): the
			// payload size is then replica-identical and equal to the NNZ
			// count the controller priced, so the quote matches the charge.
			vals, idx := mc.EncodeSparse(b.Flat, st.buf)
			st.buf = vals
			return h.env.allGather(b, collective.SparsePayload{Values: vals, Indices: idx},
				collective.WireSparse, decision, localTime)
		}
		panic("core: unknown stable-path wire format " + format)
	}

	// Unstable (Algorithm 1 lines 11–12): pay the mask re-share if the
	// pattern moved last iteration, run a full fp32 all-reduce, and feed the
	// tracker with the aggregated gradient once, inside the all-reduce: the
	// bytes are identical on every worker, so one tracker serves every rank.
	// These rounds are forced, not decided, so they carry no Decision tag.
	if st.mask.owesBitmap {
		// Every rank already holds the shared mask, so the broadcast moves
		// no data here; it is only priced, at the model's scale.
		localTime = h.env.commit(CommOp{Kind: OpBitmapBroadcast, Elements: b.Elements(),
			Wire: h.env.scaleWire(collective.BitmapWire), Bucket: b.Index}, localTime)
	}
	h.FullSyncs++
	return h.env.allReduce(b, b.Flat, collective.WireFP32, "", localTime, st.mask.observe)
}

// NotifyMaskInvalidated moves to fresh shared trackers and drops compaction
// and controller state. The trainer calls it at the pruning step (Algorithm 1
// line 2): the gradient support is about to shrink, so unions learned from
// dense warm-up gradients — and the densities the controller's incumbents
// were chosen under — no longer describe the sparsity pattern. Every worker
// calls it at the same iteration, so the branch lockstep is preserved, and
// the next stabilization pays the bitmap re-share as usual.
func (h *pacTrainHook) NotifyMaskInvalidated() {
	h.gen++
	clear(h.buckets)
	if h.ctrl != nil {
		h.ctrl.Reset()
	}
}

// StableFraction reports the fraction of bucket syncs that took the stable
// path.
func (h *pacTrainHook) StableFraction() float64 {
	total := h.CompactSyncs + h.FullSyncs
	if total == 0 {
		return 0
	}
	return float64(h.CompactSyncs) / float64(total)
}

// FormatCounts reports how many controller rounds landed on each format and
// how many format switches completed (nil, 0 without a controller).
func (h *pacTrainHook) FormatCounts() (counts map[string]int, switches int) {
	if h.ctrl == nil {
		return nil, 0
	}
	return h.ctrl.Counts(), h.ctrl.Switches()
}

// CurrentFormat names the wire format the controller is currently sending,
// for progress heartbeats ("" without a controller).
func (h *pacTrainHook) CurrentFormat() string {
	if h.ctrl == nil {
		return ""
	}
	return h.ctrl.Current()
}
