// Package adaptive implements the cost-model-driven online compression
// controller behind the "adaptive" aggregation scheme. The paper's title
// promises *adaptive* sparse gradient compression, and DGC (Lin et al.,
// 2018) and the gradient-compression evaluation study (Zhang et al., 2023)
// both show that the best wire format depends on the gradient's sparsity
// and the network regime. This package makes that choice online: each
// communication round, per bucket, the controller prices every candidate
// wire format with a pricer of the registered collective.Algorithm —
// against the fabric's *current* (possibly trace-varying) bandwidth — and
// selects the cheapest, with hysteresis so formats do not thrash at
// crossover points.
//
// Candidates (the static formats the scheme registry also exposes):
//
//   - dense-fp32: full fp32 all-reduce of the whole bucket;
//   - mask-compact: PacTrain's mask-compact fp32 all-reduce of the NNZ
//     coordinates (the globally shared mask makes indices unnecessary);
//   - mask-compact-ternary: the §III-D ternary stage on the compact path
//     (1 byte per retained coordinate on the wire);
//   - index-list: a Zen-style COO (value, index) all-gather of the in-mask
//     coordinates (8 bytes per coordinate, but roughly half the ring steps
//     of an all-reduce — the latency-bound regime's friend).
//
// Pricing quotes on the live fabric, which records nothing, so a quoted but
// untaken transfer leaves no trace. Every input to a decision (bucket size,
// mask NNZ, the synchronized simulated clock) is replica-identical, so all
// workers reach the same decision in lockstep with zero consensus traffic —
// the same property PacTrain's Mask Tracker relies on.
//
// Because decisions consult the fabric, a recorded adaptive run re-costs
// exactly only under the fabric it was recorded on (see DESIGN.md §8); the
// experiment harness therefore retrains adaptive cells per operating point
// instead of re-costing them across bandwidths. A controller restricted to
// a single candidate makes fabric-independent decisions and re-costs
// exactly anywhere, like the static schemes.
package adaptive

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pactrain/internal/collective"
	"pactrain/internal/netsim"
)

// Candidate wire-format identifiers, in canonical order.
const (
	FormatDense          = "dense-fp32"
	FormatCompact        = "mask-compact"
	FormatCompactTernary = "mask-compact-ternary"
	FormatIndexList      = "index-list"
)

// Formats lists the candidate wire formats in canonical order — the
// vocabulary Config.AdaptCandidates accepts.
func Formats() []string {
	return []string{FormatDense, FormatCompact, FormatCompactTernary, FormatIndexList}
}

// Default hysteresis parameters: a challenger must undercut the incumbent
// by DefaultMargin for DefaultDwell consecutive rounds before the
// controller switches formats. The margin is the anti-thrash band — within
// ±margin of the incumbent nothing moves — so the default dwell is 1:
// switching is free in the cost plane, and every round spent on a
// decisively beaten incumbent is pure regret (a dwell of d pays d-1 stale
// rounds per regime flip). Raise the dwell when format switches carry a
// real-world cost the model does not price.
const (
	DefaultMargin = 0.05
	DefaultDwell  = 1
)

// CanonicalCandidates normalizes a candidate list: nil/empty means every
// format, order is canonicalized, duplicates and unknown names error.
func CanonicalCandidates(names []string) ([]string, error) {
	if len(names) == 0 {
		return Formats(), nil
	}
	seen := map[string]bool{}
	for _, n := range names {
		valid := false
		for _, f := range Formats() {
			if n == f {
				valid = true
			}
		}
		if !valid {
			return nil, fmt.Errorf("adaptive: unknown candidate format %q (have %s)",
				n, strings.Join(Formats(), ", "))
		}
		if seen[n] {
			return nil, fmt.Errorf("adaptive: duplicate candidate format %q", n)
		}
		seen[n] = true
	}
	var out []string
	for _, f := range Formats() {
		if seen[f] {
			out = append(out, f)
		}
	}
	return out, nil
}

// Options configures a Controller.
type Options struct {
	// Margin is the fractional win margin: a challenger's quoted cost must
	// be below incumbent*(1-Margin) to score a win (<=0 takes
	// DefaultMargin).
	Margin float64
	// Dwell is the number of consecutive winning rounds a challenger needs
	// before the controller switches to it (<1 takes DefaultDwell).
	Dwell int
	// Candidates restricts the formats under consideration (nil = all, in
	// canonical order). Callers must pass a CanonicalCandidates result.
	Candidates []string
	// Algorithm prices the symmetric collectives (the same implementation
	// core.CostOp charges the real ops with).
	Algorithm collective.Algorithm
	// Fabric is the live fabric the controller quotes on.
	Fabric *netsim.Fabric
	// Hosts maps ranks to fabric hosts, as the real ops are priced on them.
	Hosts []netsim.NodeID
	// WireScale multiplies each wire format's per-element bytes, matching
	// the lite-twin scaling the hooks apply (DESIGN.md §1).
	WireScale float64
}

// Quote is one candidate's priced cost for a round.
type Quote struct {
	Format      string
	CostSeconds float64
}

// Decision is the controller's pick for one bucket in one round.
type Decision struct {
	// Format is the wire format to use this round (the incumbent after
	// hysteresis is applied).
	Format string
	// Switched reports whether this round completed a format switch.
	Switched bool
	// Quotes holds every candidate's priced cost, in candidate order.
	Quotes []Quote
}

// bucketState is the per-bucket hysteresis memory.
type bucketState struct {
	incumbent  string
	challenger string
	wins       int
}

// Controller picks a wire format per bucket per communication round by
// pricing every candidate with a pricer of the collective algorithm, built
// once in New.
// It is deterministic: identical inputs produce identical decisions, which
// keeps worker replicas in lockstep.
type Controller struct {
	margin     float64
	dwell      int
	candidates []string
	pricer     *collective.Pricer
	wireScale  float64

	buckets  map[int]*bucketState
	counts   map[string]int
	switches int
	// current is the format of the most recent round decision, for live
	// telemetry (Current); hysteresis never reads it.
	current string
}

// New builds a controller from validated options.
func New(opt Options) *Controller {
	if opt.Margin <= 0 {
		opt.Margin = DefaultMargin
	}
	if opt.Dwell < 1 {
		opt.Dwell = DefaultDwell
	}
	cands := opt.Candidates
	if len(cands) == 0 {
		cands = Formats()
	}
	scale := opt.WireScale
	if scale <= 0 {
		scale = 1
	}
	return &Controller{
		margin:     opt.Margin,
		dwell:      opt.Dwell,
		candidates: cands,
		pricer:     collective.NewPricer(opt.Algorithm, opt.Fabric, opt.Hosts),
		wireScale:  scale,
		buckets:    make(map[int]*bucketState),
		counts:     make(map[string]int),
	}
}

// scaleWireFormat applies the lite-twin wire scale to a format's
// per-element bytes, as hookEnv.scaleWire does for the real ops.
func scaleWireFormat(w collective.WireFormat, scale float64) collective.WireFormat {
	w.BytesPerElement *= scale
	return w
}

// priceFormat quotes one candidate for a bucket of n elements with nnz
// retained coordinates at absolute time t.
func priceFormat(p *collective.Pricer, wireScale float64, format string, n, nnz int, t float64) float64 {
	switch format {
	case FormatDense:
		return p.AllReduce(n, scaleWireFormat(collective.WireFP32, wireScale), t)
	case FormatCompact:
		return p.AllReduce(nnz, scaleWireFormat(collective.WireFP32, wireScale), t)
	case FormatCompactTernary:
		return p.AllReduce(nnz, scaleWireFormat(collective.WireInt8, wireScale), t)
	case FormatIndexList:
		sizes := make([]int, p.World())
		for i := range sizes {
			sizes[i] = nnz
		}
		return p.AllGather(sizes, scaleWireFormat(collective.WireSparse, wireScale), t)
	}
	panic(fmt.Sprintf("adaptive: unknown format %q", format))
}

// PriceQuotes prices every candidate wire format for a bucket of n elements
// with nnz retained coordinates at absolute time t, in candidate order, with
// p (the pricer the real ops are charged through). It is the quote vector
// behind Controller.Decide, exported for audit.Quoter, which reprices
// recorded adaptive rounds on the recorded fabric for both the audit ledger
// and the trace without rebuilding a controller. wireScale <= 0 means 1.
func PriceQuotes(p *collective.Pricer, wireScale float64, candidates []string, n, nnz int, t float64) []Quote {
	if wireScale <= 0 {
		wireScale = 1
	}
	quotes := make([]Quote, 0, len(candidates))
	for _, f := range candidates {
		quotes = append(quotes, Quote{
			Format:      f,
			CostSeconds: priceFormat(p, wireScale, f, n, nnz, t),
		})
	}
	return quotes
}

// Decide prices every candidate for one bucket and returns the format to
// use this round. n is the bucket's element count, nnz the shared mask's
// retained-coordinate count, and t the synchronized simulated time the
// collective will start at.
//
// Hysteresis: the first decision for a bucket takes the cheapest candidate
// outright. Afterwards the incumbent holds unless some challenger undercuts
// it by the win margin for dwell consecutive rounds; a challenger change
// restarts the count. This bounds thrashing at cost crossovers to at most
// one switch per dwell rounds and bounds the regret of a held incumbent to
// the margin.
func (c *Controller) Decide(bucket, n, nnz int, t float64) Decision {
	dec := Decision{Quotes: PriceQuotes(c.pricer, c.wireScale, c.candidates, n, nnz, t)}
	costs := make(map[string]float64, len(c.candidates))
	best := ""
	for _, q := range dec.Quotes {
		costs[q.Format] = q.CostSeconds
		if best == "" || q.CostSeconds < costs[best] {
			best = q.Format
		}
	}

	st := c.buckets[bucket]
	if st == nil {
		st = &bucketState{}
		c.buckets[bucket] = st
	}
	switch {
	case st.incumbent == "":
		// First stable round: no history to defend, take the cheapest.
		st.incumbent = best
	case best == st.incumbent || costs[best] >= costs[st.incumbent]*(1-c.margin):
		st.challenger, st.wins = "", 0
	default:
		if st.challenger != best {
			st.challenger, st.wins = best, 0
		}
		st.wins++
		if st.wins >= c.dwell {
			st.incumbent = best
			st.challenger, st.wins = "", 0
			dec.Switched = true
			c.switches++
		}
	}
	dec.Format = st.incumbent
	c.counts[st.incumbent]++
	c.current = st.incumbent
	return dec
}

// Current returns the format of the most recent round decision, or ""
// before any decision has been taken (the unstable full-sync phase).
func (c *Controller) Current() string { return c.current }

// Reset forgets all per-bucket hysteresis state. The hook calls it when the
// pruning step invalidates every mask: the densities the incumbents were
// chosen under no longer exist.
func (c *Controller) Reset() {
	c.buckets = make(map[int]*bucketState)
}

// Counts returns how many round decisions landed on each format, for
// telemetry. Keys are candidate format names.
func (c *Controller) Counts() map[string]int {
	out := make(map[string]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Switches returns the number of completed format switches.
func (c *Controller) Switches() int { return c.switches }

// SummarizeCounts renders a format→rounds map as a stable one-line string
// ("mask-compact-ternary:40 index-list:8"), most-used first.
func SummarizeCounts(counts map[string]int) string {
	type kv struct {
		k string
		v int
	}
	var rows []kv
	for k, v := range counts {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].v != rows[b].v {
			return rows[a].v > rows[b].v
		}
		return rows[a].k < rows[b].k
	})
	var parts []string
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s:%d", r.k, r.v))
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, " ")
}

// Regret bounds what hysteresis can cost: with margin m, a held incumbent
// is never more than 1/(1-m) times the cheapest candidate's quote. Exported
// for the demo and tests.
func Regret(margin float64) float64 {
	if margin <= 0 {
		margin = DefaultMargin
	}
	return 1 / (1 - math.Min(margin, 0.99))
}
