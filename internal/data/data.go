// Package data provides the synthetic image-classification datasets that
// stand in for CIFAR-10/CIFAR-100 in the PacTrain reproduction, plus the
// worker sharding machinery that mirrors a DistributedSampler.
//
// Each dataset is generated deterministically from a seed: every class gets
// a set of random prototype textures, and samples are noisy mixtures of
// their class prototypes. A difficulty knob (noise scale) controls how many
// epochs models need to converge, which is what the paper's time-to-accuracy
// experiments measure. Because the task is learnable but not trivial, lossy
// gradient compression shows the same qualitative convergence penalties the
// paper reports on CIFAR.
package data

import (
	"fmt"

	"pactrain/internal/tensor"
)

// Dataset is an in-memory labelled image set with CHW float32 samples.
type Dataset struct {
	Name     string
	Images   *tensor.Tensor // (N, C, H, W)
	Labels   []int
	Classes  int
	Channels int
	Size     int // spatial H == W
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Config controls synthetic dataset generation.
type Config struct {
	Name       string
	Classes    int
	Samples    int
	Channels   int
	Size       int
	Noise      float64 // per-pixel Gaussian noise std; higher is harder
	Prototypes int     // prototypes per class; higher is harder
	Seed       uint64
}

// CIFAR10Like returns the default 10-class configuration used across the
// experiment harness. The difficulty knobs are calibrated so a lite model
// crosses ~80% accuracy after a few epochs — far from instant, far from
// hopeless — which is the regime where the paper's TTA comparisons are
// informative.
func CIFAR10Like(samples int, seed uint64) Config {
	return Config{Name: "cifar10-like", Classes: 10, Samples: samples,
		Channels: 3, Size: 16, Noise: 1.0, Prototypes: 4, Seed: seed}
}

// Generate synthesizes a dataset from the configuration.
func Generate(cfg Config) *Dataset {
	if cfg.Classes <= 1 || cfg.Samples <= 0 || cfg.Channels <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("data: invalid config %+v", cfg))
	}
	if cfg.Prototypes <= 0 {
		cfg.Prototypes = 1
	}
	r := tensor.NewRNG(cfg.Seed)
	pix := cfg.Channels * cfg.Size * cfg.Size

	// Class prototypes: smooth random textures so convolutional models have
	// localized structure to detect.
	protos := make([][][]float32, cfg.Classes)
	for c := range protos {
		protos[c] = make([][]float32, cfg.Prototypes)
		for p := range protos[c] {
			protos[c][p] = smoothTexture(r, cfg.Channels, cfg.Size)
		}
	}

	images := tensor.New(cfg.Samples, cfg.Channels, cfg.Size, cfg.Size)
	labels := make([]int, cfg.Samples)
	id := images.Data()
	for i := 0; i < cfg.Samples; i++ {
		cls := i % cfg.Classes // balanced classes
		labels[i] = cls
		proto := protos[cls][r.Intn(cfg.Prototypes)]
		brightness := float32(1 + 0.2*(r.Float64()-0.5))
		dst := id[i*pix : (i+1)*pix]
		for j := 0; j < pix; j++ {
			dst[j] = proto[j]*brightness + float32(r.NormFloat64()*cfg.Noise)
		}
	}
	return &Dataset{Name: cfg.Name, Images: images, Labels: labels,
		Classes: cfg.Classes, Channels: cfg.Channels, Size: cfg.Size}
}

// smoothTexture builds a low-frequency random image by box-blurring white
// noise, giving each class a spatially structured signature.
func smoothTexture(r *tensor.RNG, channels, size int) []float32 {
	pix := channels * size * size
	raw := make([]float32, pix)
	for i := range raw {
		raw[i] = float32(r.NormFloat64())
	}
	out := make([]float32, pix)
	for c := 0; c < channels; c++ {
		base := c * size * size
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				var s float32
				var n float32
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						yy, xx := y+dy, x+dx
						if yy < 0 || yy >= size || xx < 0 || xx >= size {
							continue
						}
						s += raw[base+yy*size+xx]
						n++
					}
				}
				out[base+y*size+x] = s / n * 2
			}
		}
	}
	return out
}

// Split partitions a dataset into head (first n−testN samples) and tail
// (last testN samples) views sharing the class prototypes — the correct way
// to obtain a held-out test set, since generating a second dataset from a
// different seed would draw different prototypes and make evaluation
// meaningless. Because labels cycle round-robin, both splits stay
// class-balanced when sizes are multiples of the class count.
func Split(ds *Dataset, testN int) (train, test *Dataset) {
	if testN <= 0 || testN >= ds.Len() {
		panic(fmt.Sprintf("data: invalid split size %d of %d", testN, ds.Len()))
	}
	trainN := ds.Len() - testN
	pix := ds.Channels * ds.Size * ds.Size
	mk := func(from, n int) *Dataset {
		img := tensor.FromSlice(ds.Images.Data()[from*pix:(from+n)*pix], n, ds.Channels, ds.Size, ds.Size)
		return &Dataset{Name: ds.Name, Images: img, Labels: ds.Labels[from : from+n],
			Classes: ds.Classes, Channels: ds.Channels, Size: ds.Size}
	}
	return mk(0, trainN), mk(trainN, testN)
}

// Shard is a worker's view of a dataset: the subset of sample indices
// assigned to one rank, in round-robin order, mirroring PyTorch's
// DistributedSampler so that each rank sees a disjoint, balanced partition.
type Shard struct {
	ds      *Dataset
	indices []int
}

// ShardDataset returns rank's shard out of worldSize shards.
func ShardDataset(ds *Dataset, rank, worldSize int) *Shard {
	if rank < 0 || rank >= worldSize {
		panic(fmt.Sprintf("data: rank %d out of range for world size %d", rank, worldSize))
	}
	var idx []int
	for i := rank; i < ds.Len(); i += worldSize {
		idx = append(idx, i)
	}
	return &Shard{ds: ds, indices: idx}
}

// Len returns the number of samples in the shard.
func (s *Shard) Len() int { return len(s.indices) }

// Batches returns an iterator over mini-batches of up to batchSize samples,
// optionally shuffled with the given RNG (pass nil for sequential order).
// Each call to the returned function yields the next batch; ok is false
// after the last batch. The iterator fills one image tensor and one label
// slice in place, so a batch is valid only until the next call.
func (s *Shard) Batches(batchSize int, rng *tensor.RNG) func() (x *tensor.Tensor, labels []int, ok bool) {
	order := append([]int(nil), s.indices...)
	if rng != nil {
		perm := rng.Perm(len(order))
		shuffled := make([]int, len(order))
		for i, p := range perm {
			shuffled[i] = order[p]
		}
		order = shuffled
	}
	pix := s.ds.Channels * s.ds.Size * s.ds.Size
	src := s.ds.Images.Data()
	pos := 0
	x := tensor.New(0)
	var labelBuf []int
	return func() (*tensor.Tensor, []int, bool) {
		if pos >= len(order) {
			return nil, nil, false
		}
		end := min(pos+batchSize, len(order))
		n := end - pos
		x.Resize(n, s.ds.Channels, s.ds.Size, s.ds.Size)
		if cap(labelBuf) < n {
			labelBuf = make([]int, n)
		}
		labels := labelBuf[:n]
		xd := x.Data()
		for i, sample := range order[pos:end] {
			copy(xd[i*pix:(i+1)*pix], src[sample*pix:(sample+1)*pix])
			labels[i] = s.ds.Labels[sample]
		}
		pos = end
		return x, labels, true
	}
}

// View returns samples [from, from+n) of the full dataset, clipped to its
// end, without copying: the tensor and the labels alias the dataset's own
// storage, which is safe to hand a model because no layer writes its input.
func (d *Dataset) View(from, n int) (*tensor.Tensor, []int) {
	n = min(n, d.Len()-from)
	pix := d.Channels * d.Size * d.Size
	return tensor.FromSlice(d.Images.Data()[from*pix:(from+n)*pix], n, d.Channels, d.Size, d.Size), d.Labels[from : from+n]
}

// Batch is View copied out, for callers that write to what they get.
func (d *Dataset) Batch(from, n int) (*tensor.Tensor, []int) {
	x, labels := d.View(from, n)
	return x.Clone(), append([]int(nil), labels...)
}
