package ddp

import (
	"math"
	"strings"
	"testing"

	"pactrain/internal/nn"
	"pactrain/internal/tensor"
)

func testModel(seed uint64) *nn.Model {
	return nn.NewMLP(nn.LiteConfig{InChannels: 1, ImageSize: 4, Classes: 3, Seed: seed}, 16)
}

func TestBucketsCoverAllParamsOnce(t *testing.T) {
	m := testModel(1)
	buckets := BuildBuckets(m, 1024)
	seen := map[string]int{}
	total := 0
	for _, b := range buckets {
		total += b.Elements()
		for _, p := range b.Params {
			seen[p.Name]++
		}
	}
	if total != m.NumParameters() {
		t.Fatalf("buckets cover %d scalars, want %d", total, m.NumParameters())
	}
	for name, n := range seen {
		if n != 1 {
			t.Fatalf("param %s in %d buckets", name, n)
		}
	}
}

func TestBucketsReverseOrder(t *testing.T) {
	m := testModel(2)
	buckets := BuildBuckets(m, 1<<30) // one big bucket
	if len(buckets) != 1 {
		t.Fatalf("expected 1 bucket, got %d", len(buckets))
	}
	params := m.Params()
	b := buckets[0]
	if b.Params[0].Name != params[len(params)-1].Name {
		t.Fatalf("first bucket param %s, want last registered %s",
			b.Params[0].Name, params[len(params)-1].Name)
	}
	if b.Params[len(b.Params)-1].Name != params[0].Name {
		t.Fatal("last bucket param should be first registered")
	}
}

func TestBucketByteCap(t *testing.T) {
	m := testModel(3)
	capBytes := 512
	buckets := BuildBuckets(m, capBytes)
	if len(buckets) < 2 {
		t.Fatalf("expected multiple buckets under %dB cap, got %d", capBytes, len(buckets))
	}
	for _, b := range buckets {
		if len(b.Params) > 1 && b.Elements()*4 > capBytes {
			t.Fatalf("bucket %d exceeds cap with %d bytes", b.Index, b.Elements()*4)
		}
	}
}

func TestOversizeParamGetsOwnBucket(t *testing.T) {
	m := testModel(4)
	buckets := BuildBuckets(m, 8) // smaller than any tensor
	for _, b := range buckets {
		if len(b.Params) != 1 {
			t.Fatalf("bucket %d has %d params, want 1", b.Index, len(b.Params))
		}
	}
}

// TestGradsAreBucketViews holds the view contract: BuildBuckets keeps every
// gradient's values and makes it its own range of its bucket's Flat, so a
// write through either shows in the other, ZeroGrad clears Flat, and the
// ranges tile each Flat without overlap.
func TestGradsAreBucketViews(t *testing.T) {
	m := testModel(5)
	r := tensor.NewRNG(9)
	orig := map[string][]float32{}
	for _, p := range m.Params() {
		for i := range p.Grad.Data() {
			p.Grad.Data()[i] = float32(r.NormFloat64())
		}
		orig[p.Name] = append([]float32(nil), p.Grad.Data()...)
	}
	buckets := BuildBuckets(m, 1024)
	if len(buckets) < 2 {
		t.Fatalf("want several buckets, got %d", len(buckets))
	}
	for _, b := range buckets {
		off := 0
		for _, p := range b.Params {
			for i, v := range p.Grad.Data() {
				if b.Flat[off+i] != orig[p.Name][i] || v != orig[p.Name][i] {
					t.Fatalf("BuildBuckets lost %s[%d]", p.Name, i)
				}
			}
			off += p.NumElements()
		}
	}

	// Gradient → Flat: a distinct value through every Grad element. Were two
	// ranges to overlap, the later write would show in the earlier range.
	index := map[*nn.Parameter]int{}
	for k, p := range m.Params() {
		index[p] = k
		for i := range p.Grad.Data() {
			p.Grad.Data()[i] = float32(1000*(k+1) + i)
		}
	}
	for _, b := range buckets {
		off := 0
		for _, p := range b.Params {
			if len(p.Grad.Data()) != p.NumElements() {
				t.Fatalf("%s: gradient has %d elements, want %d", p.Name, len(p.Grad.Data()), p.NumElements())
			}
			for i := 0; i < p.NumElements(); i++ {
				if want := float32(1000*(index[p]+1) + i); b.Flat[off+i] != want {
					t.Fatalf("bucket %d: Flat[%d] = %v, want %s[%d] = %v", b.Index, off+i, b.Flat[off+i], p.Name, i, want)
				}
			}
			off += p.NumElements()
		}
		if off != len(b.Flat) {
			t.Fatalf("bucket %d: ranges cover %d of %d elements", b.Index, off, len(b.Flat))
		}
	}

	// Flat → gradient.
	for _, b := range buckets {
		for i := range b.Flat {
			b.Flat[i] = float32(-i - 1)
		}
		off := 0
		for _, p := range b.Params {
			for i, v := range p.Grad.Data() {
				if v != float32(-off-i-1) {
					t.Fatalf("a write to bucket %d's Flat did not reach %s[%d]", b.Index, p.Name, i)
				}
			}
			off += p.NumElements()
		}
	}

	m.ZeroGrad()
	for _, b := range buckets {
		for i, v := range b.Flat {
			if v != 0 {
				t.Fatalf("ZeroGrad left bucket %d's Flat[%d] = %v", b.Index, i, v)
			}
		}
	}
}

func TestScale(t *testing.T) {
	m := testModel(6)
	buckets := BuildBuckets(m, 1<<30)
	b := buckets[0]
	for i := range b.Flat {
		b.Flat[i] = 8
	}
	b.Scale(0.125)
	for _, v := range b.Flat {
		if v != 1 {
			t.Fatalf("scale wrong: %v", v)
		}
	}
}

func TestComputeModelPhysics(t *testing.T) {
	c := A40ComputeModel(1e9) // 1 GFLOP/sample
	fwd := c.ForwardSeconds(32)
	want := 1e9 * 32 / (37.4e12 * 0.35)
	if math.Abs(fwd-want)/want > 1e-9 {
		t.Fatalf("forward %v, want %v", fwd, want)
	}
	if c.BackwardSeconds(32) != 2*fwd {
		t.Fatal("backward should be 2× forward")
	}
	if c.IterSeconds(32) != 3*fwd {
		t.Fatal("iteration should be 3× forward")
	}
}

func TestOverlapParseRoundTrip(t *testing.T) {
	for _, o := range []Overlap{OverlapNone, OverlapBackward} {
		got, err := ParseOverlap(o.String())
		if err != nil || got != o {
			t.Fatalf("ParseOverlap(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	if OverlapNone.String() != "none" || OverlapBackward.String() != "backward" {
		t.Fatal("Overlap.String broken")
	}
	if got, err := ParseOverlap(""); err != nil || got != OverlapNone {
		t.Fatalf("empty selector = %v, %v; want OverlapNone", got, err)
	}
	if _, err := ParseOverlap("sideways"); err == nil {
		t.Fatal("unknown overlap mode must error")
	} else if !strings.Contains(err.Error(), "none") || !strings.Contains(err.Error(), "backward") {
		t.Fatalf("error should list the vocabulary: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustOverlap must panic on unknown names")
		}
	}()
	MustOverlap("sideways")
}

func TestRankComputeScale(t *testing.T) {
	var rc RankCompute
	if rc.Enabled() {
		t.Fatal("zero RankCompute must be disabled")
	}
	if s := rc.Scale(3, 17); s != 1.0 {
		t.Fatalf("disabled Scale = %v, want exactly 1", s)
	}
	rc = RankCompute{Multipliers: []float64{1, 1, 2}}
	if rc.Scale(2, 0) != 2 || rc.Scale(0, 0) != 1 || rc.Scale(5, 0) != 1 {
		t.Fatal("multiplier lookup broken (ranks past the slice run at 1)")
	}
	// Jitter is deterministic in (seed, rank, iter) and bounded by the
	// fraction.
	j := RankCompute{JitterFrac: 0.25, JitterSeed: 9}
	for rank := 0; rank < 3; rank++ {
		for iter := 0; iter < 5; iter++ {
			a, b := j.Scale(rank, iter), j.Scale(rank, iter)
			if a != b {
				t.Fatalf("jitter not deterministic at (%d,%d): %v vs %v", rank, iter, a, b)
			}
			if a < 0.75 || a >= 1.25 {
				t.Fatalf("jitter scale %v outside [0.75, 1.25)", a)
			}
		}
	}
	if j.Scale(0, 1) == j.Scale(0, 2) && j.Scale(0, 2) == j.Scale(0, 3) {
		t.Fatal("jitter constant across iterations")
	}
	if j.Scale(0, 1) == j.Scale(1, 1) && j.Scale(1, 1) == j.Scale(2, 1) {
		t.Fatal("jitter constant across ranks")
	}
}

func TestRankComputeCanonicalAndValidate(t *testing.T) {
	rc := RankCompute{Multipliers: []float64{1, 2, 1, 1}, JitterSeed: 99}
	canon := rc.Canonical()
	if len(canon.Multipliers) != 2 || canon.Multipliers[1] != 2 {
		t.Fatalf("trailing unit multipliers not trimmed: %v", canon.Multipliers)
	}
	if canon.JitterSeed != 0 {
		t.Fatal("jitter seed is dead without jitter and must zero")
	}
	all1 := RankCompute{Multipliers: []float64{1, 1}}
	if c := all1.Canonical(); c.Enabled() {
		t.Fatalf("all-unit multipliers must canonicalize to disabled: %+v", c)
	}
	if err := (RankCompute{Multipliers: []float64{1, -2}}).Validate(4); err == nil {
		t.Fatal("negative multiplier must fail validation")
	}
	if err := (RankCompute{Multipliers: []float64{1, 1, 1}}).Validate(2); err == nil {
		t.Fatal("more multipliers than ranks must fail validation")
	}
	if err := (RankCompute{JitterFrac: 1}).Validate(2); err == nil {
		t.Fatal("jitter 1 must fail validation")
	}
	if err := (RankCompute{Multipliers: []float64{2, 0.5}, JitterFrac: 0.1}).Validate(2); err != nil {
		t.Fatalf("valid heterogeneity rejected: %v", err)
	}
}

// TestUndrawnGradsBindToBuckets: an undrawn replica's drawing layers get no
// gradient storage of their own; BuildBuckets binds every gradient to a
// zeroed range of its bucket.
func TestUndrawnGradsBindToBuckets(t *testing.T) {
	m, err := nn.NewLiteUndrawn("ResNet18", nn.DefaultLiteConfig(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	unbound := 0
	for _, p := range m.Params() {
		if p.Grad.Data() == nil {
			unbound++
		}
	}
	if unbound == 0 {
		t.Fatal("every gradient of an undrawn replica has storage")
	}
	for _, b := range BuildBuckets(m, 1<<14) {
		off := 0
		for _, p := range b.Params {
			g := p.Grad.Data()
			if len(g) != p.NumElements() || &g[0] != &b.Flat[off] {
				t.Fatalf("%s is not bound to its bucket range", p.Name)
			}
			for _, v := range g {
				if v != 0 {
					t.Fatalf("%s starts at %v, want 0", p.Name, v)
				}
			}
			off += len(g)
		}
	}
}
