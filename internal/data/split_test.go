package data

import "testing"

func TestSplitSharesPrototypes(t *testing.T) {
	full := Generate(CIFAR10Like(200, 9))
	train, test := Split(full, 50)
	if train.Len() != 150 || test.Len() != 50 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	// Views share storage with the parent.
	if &train.Images.Data()[0] != &full.Images.Data()[0] {
		t.Fatal("train split must view the parent storage")
	}
	// Class balance holds on both sides (labels cycle round-robin and both
	// sizes are multiples of the class count).
	counts := make([]int, test.Classes)
	for _, l := range test.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 5 {
			t.Fatalf("test class %d has %d samples, want 5", c, n)
		}
	}
}

func TestSplitInvalidSizesPanic(t *testing.T) {
	ds := Generate(CIFAR10Like(20, 1))
	for _, n := range []int{0, 20, 25} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Split(%d) should panic", n)
				}
			}()
			Split(ds, n)
		}()
	}
}

// cifar100Like is a harder 100-class-style configuration, reduced to 20
// classes to keep lite-model heads small.
func cifar100Like(samples int, seed uint64) Config {
	return Config{Name: "cifar100-like", Classes: 20, Samples: samples,
		Channels: 3, Size: 16, Noise: 1.2, Prototypes: 4, Seed: seed}
}

func TestCIFAR100LikeShape(t *testing.T) {
	ds := Generate(cifar100Like(100, 3))
	if ds.Classes != 20 {
		t.Fatalf("cifar100-like classes %d, want 20", ds.Classes)
	}
	seen := map[int]bool{}
	for _, l := range ds.Labels {
		seen[l] = true
	}
	if len(seen) != 20 {
		t.Fatalf("only %d distinct classes generated", len(seen))
	}
}

func TestGenerateInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(Config{Classes: 1, Samples: 10, Channels: 3, Size: 8})
}
