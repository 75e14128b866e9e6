package core

import (
	"sync"

	"pactrain/internal/data"
)

// datasetMemoBytes bounds the dataset memo; the oldest entries are evicted
// beyond it. A quick job's dataset is ~1 MB, a train_job twin's ~3 MB.
const datasetMemoBytes = 64 << 20

// datasetMemo holds the datasets Run has generated, by configuration, so the
// runs of one process that share a data configuration (the trainings of a
// suite pass, the repeats of a served job) generate it once. A dataset is
// read-only once generated — ranks copy their batches out, evaluation and
// GraSP's probe read views — so one instance serves concurrent runs.
var datasetMemo struct {
	sync.Mutex
	sets  map[data.Config]*data.Dataset
	order []data.Config // insertion order, oldest first
	bytes int
}

// memoDataset returns data.Generate(cfg), from the memo when it holds it.
func memoDataset(cfg data.Config) *data.Dataset {
	m := &datasetMemo
	m.Lock()
	defer m.Unlock()
	if ds := m.sets[cfg]; ds != nil {
		return ds
	}
	ds := data.Generate(cfg)
	size := datasetBytes(ds)
	if size > datasetMemoBytes || cfg.Noise != cfg.Noise { // a NaN key never matches
		return ds
	}
	for ; m.bytes+size > datasetMemoBytes; m.order = m.order[1:] {
		m.bytes -= datasetBytes(m.sets[m.order[0]])
		delete(m.sets, m.order[0])
	}
	if m.sets == nil {
		m.sets = make(map[data.Config]*data.Dataset)
	}
	m.sets[cfg] = ds
	m.order = append(m.order, cfg)
	m.bytes += size
	return ds
}

// datasetBytes is what a dataset holds: float32 pixels and int labels.
func datasetBytes(ds *data.Dataset) int { return 4*ds.Images.Len() + 8*ds.Len() }
