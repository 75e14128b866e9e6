package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded at a boundary the benchmark
// itself crosses. Times are seconds since the tracer started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"` // job fingerprint or arrival index
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Self   float64 `json:"self"` // End-Start minus what child spans cover
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// which is how the untraced end-to-end runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// add records a span whose start and end were measured elsewhere (server
// timestamps, engine events) and returns its id.
func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return len(t.spans)
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover (children may overlap each other, so
// their union is taken).
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range t.spans {
		p := &t.spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := 0.0, p.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, edge), min(t.spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self = p.End - p.Start - covered
	}
	return t.spans
}

// writeTrace stores the spans as JSON; the directory is created on demand.
func writeTrace(path string, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"workload": workload, "unit": "s", "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
