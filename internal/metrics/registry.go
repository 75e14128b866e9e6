package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds counters, gauges, and fixed-bucket histograms behind one
// mutex, rendered in the Prometheus text exposition format in declaration
// order so an endpoint's output is deterministic. Instruments are declared
// once and then written through the returned handles, which keeps hot paths
// map-lookup-free and makes the set of exported series a compile-time
// property of the caller.
type Registry struct {
	mu    sync.Mutex
	order []string
	insts map[string]instrument
}

type instrument interface {
	render(b *strings.Builder, name string)
	help() string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{insts: make(map[string]instrument)}
}

func (r *Registry) register(name string, inst instrument) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.insts[name]; ok {
		panic(fmt.Sprintf("metrics: instrument %q declared twice", name))
	}
	r.insts[name] = inst
	r.order = append(r.order, name)
}

// Counter is a monotonically increasing value.
type Counter struct {
	mu   *sync.Mutex
	h    string
	v    float64
	kind string
}

// Counter declares a counter and returns its handle.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{mu: &r.mu, h: help, kind: "counter"}
	r.register(name, c)
	return c
}

// Gauge declares a gauge (a value that can go down) and returns its handle.
// A Gauge is a *Counter whose exposition TYPE is "gauge" and whose Set is
// meaningful.
func (r *Registry) Gauge(name, help string) *Counter {
	c := &Counter{mu: &r.mu, h: help, kind: "gauge"}
	r.register(name, c)
	return c
}

// Add increments the value. Counters must only ever receive non-negative
// deltas; gauges may move either way.
func (c *Counter) Add(delta float64) {
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Set assigns the value (gauges; also used to sync counters from an
// authoritative snapshot).
func (c *Counter) Set(v float64) {
	c.mu.Lock()
	c.v = v
	c.mu.Unlock()
}

// Value reads the current value.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func (c *Counter) help() string { return c.h }

func (c *Counter) render(b *strings.Builder, name string) {
	fmt.Fprintf(b, "# TYPE %s %s\n", name, c.kind)
	fmt.Fprintf(b, "%s %s\n", name, formatValue(c.v))
}

// Histogram is a fixed-bucket distribution. Observations land in the first
// bucket whose upper bound is >= the value; the exposition is cumulative
// per the Prometheus convention (each le bucket counts observations <= its
// bound, closed by le="+Inf").
type Histogram struct {
	mu     *sync.Mutex
	h      string
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the overflow (+Inf) bucket
	sum    float64
	total  uint64
}

// Histogram declares a histogram with the given upper bounds (must be
// strictly increasing and non-empty) and returns its handle.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket bound", name))
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram %q bounds not increasing: %v", name, bounds))
	}
	h := &Histogram{
		mu:     &r.mu,
		h:      help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.register(name, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

func (h *Histogram) help() string { return h.h }

func (h *Histogram) render(b *strings.Builder, name string) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatValue(bound), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatValue(h.sum))
	fmt.Fprintf(b, "%s_count %d\n", name, h.total)
}

// Info is a constant-1 gauge carrying identity as labels — the Prometheus
// convention for build/version metadata (*_info series). The labels are
// fixed at declaration; the value is always 1.
type Info struct {
	h      string
	series string // pre-rendered {k="v",...} suffix, keys sorted
}

// Info declares an info gauge with the given label set and returns its
// handle (the handle carries no operations — the instrument is constant).
func (r *Registry) Info(name, help string, labels map[string]string) *Info {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	inst := &Info{h: help, series: b.String()}
	r.register(name, inst)
	return inst
}

func (i *Info) help() string { return i.h }

func (i *Info) render(b *strings.Builder, name string) {
	fmt.Fprintf(b, "# TYPE %s gauge\n", name)
	fmt.Fprintf(b, "%s{%s} 1\n", name, i.series)
}

// ExponentialBuckets returns n upper bounds starting at start and growing
// by factor — the standard shape for latency and age histograms whose
// interesting range spans orders of magnitude.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid exponential buckets (start=%g factor=%g n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Render emits every instrument in the Prometheus text format, in
// declaration order.
func (r *Registry) Render() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.order {
		inst := r.insts[name]
		if help := inst.help(); help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, help)
		}
		inst.render(&b, name)
	}
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
