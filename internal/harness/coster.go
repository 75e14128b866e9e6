package harness

import (
	"strconv"
	"strings"

	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/netsim"
)

// opCoster prices recorded communication ops, optionally memoizing by op
// signature. On a time-invariant fabric (no bandwidth traces) the launch
// time t only ever reaches a cost model through bandwidth lookups, which are
// constant, so an op's duration is t-independent up to accumulation roundoff:
// the models fold durations into the running clock (t += step; ... return
// t - start), and that subtraction can differ in the last ulp between two
// launch times. Memoized pricing therefore returns the first evaluation's
// value for every repeat of a signature.
//
// That ulp is far below the cost models' fidelity, but it is NOT the
// bit-exactness contract the replay paths pin (re-costing a recorded run on
// its own fabric reproduces the training clock byte-for-byte). The memo is
// therefore strictly opt-in: the historical replay paths price every op
// live, and only the cluster-scale pricing path (the largescale experiment,
// whose model is *defined* as memoized pricing) enables it. There, recorded
// logs repeat a handful of signatures hundreds of times, and memoization
// turns O(iterations) hierarchical pricings — at 4,096 ranks on a 2-core
// x86-64 host, about 57 µs each once the pricer holds its routes, and
// 0.95 ms for the first, which resolves them — into O(distinct
// signatures). The memo is scoped to one
// priced log for the same reason it is opt-in: shared across launch times
// (let alone processes) it would move the last ulp of paths that pin their
// bytes, so largescale clears it between cells while its one coster keeps
// the pricer. What every path gets instead is cheap live pricing — the
// coster's one pricer resolves every route once, on first use, a uniform
// ring prices each step once, and any other untraced ring one rotation of
// steps (DESIGN.md §5).
type opCoster struct {
	pricer *collective.Pricer
	memo   map[opKey]float64 // nil => price every op live
}

// opKey is a cost signature: every CommOp field the cost models read.
// Decision, Bucket, and LaunchAt never influence the duration.
type opKey struct {
	kind    core.OpKind
	elems   int
	wire    collective.WireFormat
	union   int
	blockSz int
	scale   float64
	shape   string // Sizes/Blocks, encoded; "" when both are nil
}

// newOpCoster builds a coster. memoize engages the signature cache, and is
// ignored (pricing stays live) when the fabric's bandwidths vary with time —
// there a repeat of a signature legitimately costs a different duration.
func newOpCoster(alg collective.Algorithm, fabric *netsim.Fabric, hosts []netsim.NodeID, memoize bool) *opCoster {
	c := &opCoster{pricer: collective.NewPricer(alg, fabric, hosts)}
	if memoize && fabric.TimeInvariant() {
		c.memo = make(map[opKey]float64)
	}
	return c
}

// shapeKey flattens the op's variable-length fields into one string key.
func shapeKey(sizes, blocks []int) string {
	if sizes == nil && blocks == nil {
		return ""
	}
	var sb strings.Builder
	for _, v := range sizes {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte(',')
	}
	sb.WriteByte(';')
	for _, v := range blocks {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte(',')
	}
	return sb.String()
}

// cost returns the op's duration when launched at t. With the memo off this
// is exactly core.CostOp; with it on, repeats of a signature reuse the first
// evaluation (see the type comment for the roundoff caveat).
func (c *opCoster) cost(op core.CommOp, t float64) float64 {
	if c.memo == nil {
		return core.CostOp(op, c.pricer, t)
	}
	key := opKey{
		kind: op.Kind, elems: op.Elements, wire: op.Wire,
		union: op.Union, blockSz: op.BlockSz, scale: op.Scale,
		shape: shapeKey(op.Sizes, op.Blocks),
	}
	if d, ok := c.memo[key]; ok {
		return d
	}
	d := core.CostOp(op, c.pricer, t)
	c.memo[key] = d
	return d
}
