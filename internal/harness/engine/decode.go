package engine

import (
	"strconv"

	"pactrain/internal/collective"
	"pactrain/internal/core"
	"pactrain/internal/metrics"
)

// entryDecoder reads a cache entry in one pass, without reflection, over
// the grammar encodeEntry writes: json.Marshal's output for a cacheEntry.
// That is no whitespace; every key one of its object's Go field names (the
// envelope's json tags), spelled exactly and read at most once; strings of
// printable ASCII without escapes; numbers in JSON's grammar, integers only
// in int fields, parsed by strconv as encoding/json parses them; and null
// only where a slice, map or pointer may be nil, kept apart from [] and {}.
// Any other byte fails it, and decodeEntry then hands the whole input to
// json.Unmarshal, the fallback for older or hand-edited entries. Wherever
// it succeeds it builds what json.Unmarshal builds (FuzzDecodeEntry holds
// the two to reflect.DeepEqual).
type entryDecoder struct {
	b   []byte
	i   int
	bad bool
}

// decodeFast decodes an envelope; ok is false once the bytes leave the
// grammar.
func decodeFast(raw []byte) (entry cacheEntry, ok bool) {
	d := &entryDecoder{b: raw}
	object(d, envelopeFields, &entry)
	return entry, !d.bad && d.i == len(raw)
}

// A field is one key of an object in the grammar and how its value decodes
// into a T.
type field[T any] struct {
	key    string
	decode func(d *entryDecoder, v *T)
}

// The grammar's objects: each one's keys in the order json.Marshal writes
// them.
var (
	envelopeFields = []field[cacheEntry]{
		{"version", func(d *entryDecoder, e *cacheEntry) { e.Version = d.integer() }},
		{"result", func(d *entryDecoder, e *cacheEntry) { e.Result = new(core.Result); object(d, resultFields, e.Result) }},
	}
	resultFields = []field[core.Result]{
		{"Scheme", func(d *entryDecoder, r *core.Result) { r.Scheme = d.str() }},
		{"Model", func(d *entryDecoder, r *core.Result) { r.Model = d.str() }},
		{"Collective", func(d *entryDecoder, r *core.Result) { r.Collective = d.str() }},
		{"Curve", func(d *entryDecoder, r *core.Result) { object(d, curveFields, &r.Curve) }},
		{"FinalAcc", func(d *entryDecoder, r *core.Result) { r.FinalAcc = d.float() }},
		{"BestAcc", func(d *entryDecoder, r *core.Result) { r.BestAcc = d.float() }},
		{"TTASeconds", func(d *entryDecoder, r *core.Result) { r.TTASeconds = d.float() }},
		{"ReachedTarget", func(d *entryDecoder, r *core.Result) { r.ReachedTarget = d.boolean() }},
		{"Iterations", func(d *entryDecoder, r *core.Result) { r.Iterations = d.integer() }},
		{"EpochsRun", func(d *entryDecoder, r *core.Result) { r.EpochsRun = d.integer() }},
		{"SimSeconds", func(d *entryDecoder, r *core.Result) { r.SimSeconds = d.float() }},
		{"WallSeconds", func(d *entryDecoder, r *core.Result) { r.WallSeconds = d.float() }},
		{"Stats", func(d *entryDecoder, r *core.Result) { object(d, statsFields, &r.Stats) }},
		{"CommLog", func(d *entryDecoder, r *core.Result) {
			if !d.null() {
				r.CommLog = new(core.CommLog)
				object(d, logFields, r.CommLog)
			}
		}},
		{"StableFraction", func(d *entryDecoder, r *core.Result) { r.StableFraction = d.float() }},
		{"MaskSparsity", func(d *entryDecoder, r *core.Result) { r.MaskSparsity = d.float() }},
		{"AdaptiveDecisions", func(d *entryDecoder, r *core.Result) { r.AdaptiveDecisions = d.counts() }},
		{"AdaptiveSwitches", func(d *entryDecoder, r *core.Result) { r.AdaptiveSwitches = d.integer() }},
		{"WeightChecksums", func(d *entryDecoder, r *core.Result) { r.WeightChecksums = list(d, floatAt) }},
	}
	curveFields = []field[metrics.Curve]{
		{"Points", func(d *entryDecoder, c *metrics.Curve) {
			c.Points = list(d, func(d *entryDecoder, p *metrics.Point) { object(d, pointFields, p) })
		}},
	}
	pointFields = []field[metrics.Point]{
		{"Iter", func(d *entryDecoder, p *metrics.Point) { p.Iter = d.integer() }},
		{"Epoch", func(d *entryDecoder, p *metrics.Point) { p.Epoch = d.integer() }},
		{"SimTime", func(d *entryDecoder, p *metrics.Point) { p.SimTime = d.float() }},
		{"Acc", func(d *entryDecoder, p *metrics.Point) { p.Acc = d.float() }},
		{"Loss", func(d *entryDecoder, p *metrics.Point) { p.Loss = d.float() }},
	}
	statsFields = []field[core.Stats]{
		{"AllReduceOps", func(d *entryDecoder, s *core.Stats) { s.AllReduceOps = d.integer() }},
		{"AllGatherOps", func(d *entryDecoder, s *core.Stats) { s.AllGatherOps = d.integer() }},
		{"BroadcastOps", func(d *entryDecoder, s *core.Stats) { s.BroadcastOps = d.integer() }},
		{"PSOps", func(d *entryDecoder, s *core.Stats) { s.PSOps = d.integer() }},
		{"BarrierOps", func(d *entryDecoder, s *core.Stats) { s.BarrierOps = d.integer() }},
		{"SimSeconds", func(d *entryDecoder, s *core.Stats) { s.SimSeconds = d.float() }},
		{"PayloadBytes", func(d *entryDecoder, s *core.Stats) { s.PayloadBytes = d.float() }},
		{"PerWorkerSent", func(d *entryDecoder, s *core.Stats) { s.PerWorkerSent = d.float() }},
	}
	logFields = []field[core.CommLog]{
		{"BucketElems", func(d *entryDecoder, l *core.CommLog) { l.BucketElems = list(d, intAt) }},
		{"Iters", func(d *entryDecoder, l *core.CommLog) {
			l.Iters = list(d, func(d *entryDecoder, ops *[]core.CommOp) {
				*ops = list(d, func(d *entryDecoder, op *core.CommOp) { object(d, opFields, op) })
			})
		}},
	}
	opFields = []field[core.CommOp]{
		{"Kind", func(d *entryDecoder, op *core.CommOp) { op.Kind = core.OpKind(d.integer()) }},
		{"Elements", func(d *entryDecoder, op *core.CommOp) { op.Elements = d.integer() }},
		{"Sizes", func(d *entryDecoder, op *core.CommOp) { op.Sizes = list(d, intAt) }},
		{"Blocks", func(d *entryDecoder, op *core.CommOp) { op.Blocks = list(d, intAt) }},
		{"Union", func(d *entryDecoder, op *core.CommOp) { op.Union = d.integer() }},
		{"BlockSz", func(d *entryDecoder, op *core.CommOp) { op.BlockSz = d.integer() }},
		{"Scale", func(d *entryDecoder, op *core.CommOp) { op.Scale = d.float() }},
		{"Wire", func(d *entryDecoder, op *core.CommOp) { object(d, wireFields, &op.Wire) }},
		{"Decision", func(d *entryDecoder, op *core.CommOp) { op.Decision = d.str() }},
		{"Bucket", func(d *entryDecoder, op *core.CommOp) { op.Bucket = d.integer() }},
		{"LaunchAt", func(d *entryDecoder, op *core.CommOp) { op.LaunchAt = d.float() }},
	}
	wireFields = []field[collective.WireFormat]{
		{"Name", func(d *entryDecoder, w *collective.WireFormat) { w.Name = d.str() }},
		{"BytesPerElement", func(d *entryDecoder, w *collective.WireFormat) { w.BytesPerElement = d.float() }},
		{"HeaderBytes", func(d *entryDecoder, w *collective.WireFormat) { w.HeaderBytes = d.float() }},
	}
)

// fail stops the decoder: every later read sees the end of the input.
func (d *entryDecoder) fail() {
	d.bad, d.i = true, len(d.b)
}

// eat consumes c if it is the next byte.
func (d *entryDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// expect consumes c or fails.
func (d *entryDecoder) expect(c byte) {
	if !d.eat(c) {
		d.fail()
	}
}

// literal consumes lit if it comes next.
func (d *entryDecoder) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// null consumes a null if one comes next.
func (d *entryDecoder) null() bool { return d.literal("null") }

// boolean reads true or false.
func (d *entryDecoder) boolean() bool {
	if d.literal("true") {
		return true
	}
	if !d.literal("false") {
		d.fail()
	}
	return false
}

// object reads the object of a T into v: each key one of fields', at most
// once, its value decoded by that field.
func object[T any](d *entryDecoder, fields []field[T], v *T) {
	var seen uint32
	next := 0 // json.Marshal writes the keys in order, so try the next one first
	d.items('{', '}', func() {
		k := key(d, fields, next)
		if k < 0 || seen&(1<<k) != 0 {
			d.fail()
			return
		}
		seen |= 1 << k
		next = k + 1
		fields[k].decode(d, v)
	})
}

// key reads a key that is one of fields', trying them from fields[next] on,
// and the colon after it; it returns the field's index, or -1 for any other
// key.
func key[T any](d *entryDecoder, fields []field[T], next int) int {
	rest := d.b[d.i:]
	for j := range fields {
		k := (next + j) % len(fields)
		if n := len(fields[k].key); len(rest) > n+2 && rest[0] == '"' && rest[n+1] == '"' && rest[n+2] == ':' &&
			string(rest[1:n+1]) == fields[k].key {
			d.i += n + 3
			return k
		}
	}
	return -1
}

// counts reads a map[string]int: null is a nil map and {} an empty one, as
// json.Unmarshal makes them; a repeated key keeps its last value, as there.
func (d *entryDecoder) counts() map[string]int {
	if d.null() {
		return nil
	}
	m := map[string]int{}
	d.items('{', '}', func() {
		key := d.str()
		d.expect(':')
		m[key] = d.integer()
	})
	return m
}

// list reads an array, elem decoding each element in place: null is a nil
// slice and [] an empty one, as json.Unmarshal makes them.
func list[T any](d *entryDecoder, elem func(*entryDecoder, *T)) []T {
	if d.null() {
		return nil
	}
	out := []T{}
	d.items('[', ']', func() {
		var zero T
		out = append(out, zero)
		elem(d, &out[len(out)-1])
	})
	return out
}

// items reads the comma-separated items between open and close, item
// reading each one.
func (d *entryDecoder) items(open, close byte, item func()) {
	d.expect(open)
	if d.eat(close) {
		return
	}
	for !d.bad {
		item()
		if !d.eat(',') {
			d.expect(close)
			return
		}
	}
}

// text reads a string of printable ASCII without escapes and returns its
// bytes: what json.Unmarshal reads as those same bytes.
func (d *entryDecoder) text() []byte {
	if !d.eat('"') {
		d.fail()
		return nil
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1]
		case c < 0x20 || c == '\\' || c >= 0x80:
			d.fail()
			return nil
		}
	}
	d.fail()
	return nil
}

func (d *entryDecoder) str() string { return string(d.text()) }

// intAt and floatAt are list's element decoders for numbers.
func intAt(d *entryDecoder, v *int)       { *v = d.integer() }
func floatAt(d *entryDecoder, v *float64) { *v = d.float() }

// number reads a number in JSON's grammar, -?(0|[1-9][0-9]*) followed,
// unless integer, by an optional fraction and exponent, and returns its
// text.
func (d *entryDecoder) number(integer bool) []byte {
	start := d.i
	d.eat('-')
	if n := d.digits(); n == 0 || n > 1 && d.b[d.i-n] == '0' {
		d.fail()
	}
	if !integer {
		if d.eat('.') && d.digits() == 0 {
			d.fail()
		}
		if d.eat('e') || d.eat('E') {
			if !d.eat('+') {
				d.eat('-')
			}
			if d.digits() == 0 {
				d.fail()
			}
		}
	}
	if d.bad {
		return nil
	}
	return d.b[start:d.i]
}

// digits consumes a run of decimal digits and returns its length.
func (d *entryDecoder) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// integer reads an integer as json.Unmarshal reads one into an int field; one
// out of range fails.
func (d *entryDecoder) integer() int {
	v, err := strconv.ParseInt(string(d.number(true)), 10, 64)
	if err != nil {
		d.fail()
	}
	return int(v)
}

// float reads a number as json.Unmarshal reads one into a float64 field;
// one out of range fails.
func (d *entryDecoder) float() float64 {
	v, err := strconv.ParseFloat(string(d.number(false)), 64)
	if err != nil {
		d.fail()
	}
	return v
}
