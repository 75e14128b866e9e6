package core

import (
	"sync"

	"pactrain/internal/data"
	"pactrain/internal/nn"
)

// memoBytes bounds the memo; the oldest entries are evicted beyond it. A quick
// job's dataset is ~1 MB, a train_job twin's ~3 MB, and a twin's template well
// under 1 MB.
const memoBytes = 64 << 20

// memo holds what Run builds from configuration alone and never writes, so the
// runs of one process that share a configuration (the trainings of a suite
// pass, the repeats of a served job) build it once:
//   - datasets, keyed by data.Config. Ranks copy their batches out, and
//     evaluation and GraSP's probe read views.
//   - templates, keyed by templateKey: each twin's starting weights, drawn
//     once from its seed. A template is never trained; replicas copy it.
//
// Either is read-only once built, so one instance serves concurrent runs.
var memo struct {
	sync.Mutex
	entries map[any]memoEntry
	order   []any // insertion order, oldest first
	bytes   int
}

type memoEntry struct {
	value any
	size  int
}

// memoized returns the entry under key, or builds, stores and returns it. A
// value larger than the memo is returned unstored.
func memoized(key any, build func() (value any, size int)) any {
	m := &memo
	m.Lock()
	defer m.Unlock()
	if e, ok := m.entries[key]; ok {
		return e.value
	}
	value, size := build()
	if size > memoBytes {
		return value
	}
	for ; m.bytes+size > memoBytes; m.order = m.order[1:] {
		m.bytes -= m.entries[m.order[0]].size
		delete(m.entries, m.order[0])
	}
	if m.entries == nil {
		m.entries = make(map[any]memoEntry)
	}
	m.entries[key] = memoEntry{value, size}
	m.order = append(m.order, key)
	m.bytes += size
	return value
}

// memoDataset returns data.Generate(cfg), from the memo when it holds it.
func memoDataset(cfg data.Config) *data.Dataset {
	if cfg.Noise != cfg.Noise { // a NaN key never matches
		return data.Generate(cfg)
	}
	return memoized(cfg, func() (any, int) {
		ds := data.Generate(cfg)
		return ds, 4*ds.Images.Len() + 8*ds.Len() // float32 pixels, int labels
	}).(*data.Dataset)
}

// templateKey names a twin's template: the model and its geometry, seed
// included, fix every drawn weight.
type templateKey struct {
	model string
	lite  nn.LiteConfig
}

// newReplica returns a model that computes exactly what
// nn.NewLiteByName(model, lite) builds: the layer tree built without drawing,
// with the twin's template copied in. Only the template's first build draws.
// Run resolved the name before any rank started, so neither build fails.
func newReplica(model string, lite nn.LiteConfig) *nn.Model {
	replica, _ := nn.NewLiteUndrawn(model, lite)
	tmpl := memoized(templateKey{model, lite}, func() (any, int) {
		m, _ := nn.NewLiteByName(model, lite)
		return m, 8 * m.NumParameters() // float32 weights and gradients
	})
	replica.CopyStateFrom(tmpl.(*nn.Model))
	return replica
}
