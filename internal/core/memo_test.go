package core

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"testing"

	"pactrain/internal/ddp"
	"pactrain/internal/nn"
	"pactrain/internal/tensor"
)

// modelDigest hashes what a model computes from: every weight's bit pattern
// and, through an evaluation-mode forward pass that reads the BatchNorm
// running statistics, its output on a fixed batch.
func modelDigest(m *nn.Model, lite nn.LiteConfig) [32]byte {
	h := sha256.New()
	for _, p := range m.Params() {
		binary.Write(h, binary.LittleEndian, p.W.Data())
	}
	x := tensor.Randn(tensor.NewRNG(3), 1, 4, lite.InChannels, lite.ImageSize, lite.ImageSize)
	binary.Write(h, binary.LittleEndian, m.Forward(x, false).Data())
	return [32]byte(h.Sum(nil))
}

// TestReplicaMatchesColdBuild holds the template invariant: a template is
// never trained. After a run has trained (and, at its pruning epoch, masked)
// replicas of a twin, a fresh replica still equals a cold nn.NewLiteByName
// build bit for bit.
func TestReplicaMatchesColdBuild(t *testing.T) {
	for _, model := range []string{"MLP", "ResNet18", "VGG19", "ViT-Base-16"} {
		cfg := tinyTwinConfig(model)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		memo.Lock()
		_, held := memo.entries[templateKey{model, cfg.Lite}]
		memo.Unlock()
		if !held {
			t.Fatalf("%s: the run left no template in the memo", model)
		}
		replica := newReplica(model, cfg.Lite)
		cold, err := nn.NewLiteByName(model, cfg.Lite)
		if err != nil {
			t.Fatal(err)
		}
		if modelDigest(replica, cfg.Lite) != modelDigest(cold, cfg.Lite) {
			t.Fatalf("%s: a replica fetched after training differs from a cold build", model)
		}
	}
}

// TestReplicasFetchedConcurrentlyAreIndependent fetches nine replicas at once
// (a run's eight ranks and its evaluator) of a twin no other test builds, so
// the fetches race on the template's draw. Each must equal a cold build, and
// none may share weight or (once bucketed) gradient storage with another or
// with the template.
func TestReplicasFetchedConcurrentlyAreIndependent(t *testing.T) {
	const model, n = "ResNet18", 9
	lite := nn.DefaultLiteConfig(10, 4242)
	lite.Width = 4
	replicas := make([]*nn.Model, n)
	digests := make([][32]byte, n)
	var wg sync.WaitGroup
	for i := range replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := newReplica(model, lite)
			digests[i] = modelDigest(m, lite)
			// A replica's gradients get storage when its buckets bind it,
			// as the trainer does right after fetching it.
			ddp.BuildBuckets(m, 0)
			for _, p := range m.Params() {
				for j := range p.W.Data() {
					p.W.Data()[j] = float32(i)
					p.Grad.Data()[j] = float32(-i)
				}
			}
			replicas[i] = m
		}(i)
	}
	wg.Wait()
	cold, err := nn.NewLiteByName(model, lite)
	if err != nil {
		t.Fatal(err)
	}
	want := modelDigest(cold, lite)
	for i, m := range replicas {
		if digests[i] != want {
			t.Fatalf("replica %d differs from a cold build", i)
		}
		for _, p := range m.Params() {
			for j := range p.W.Data() {
				if p.W.Data()[j] != float32(i) || p.Grad.Data()[j] != float32(-i) {
					t.Fatalf("replica %d: %s[%d] was written by another replica", i, p.Name, j)
				}
			}
		}
	}
	if modelDigest(newReplica(model, lite), lite) != want {
		t.Fatal("writes to replicas reached the template")
	}
}
