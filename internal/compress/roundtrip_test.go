package compress

import (
	"math"
	"testing"

	"pactrain/internal/collective"
	"pactrain/internal/tensor"
)

// roundTripValue maps a byte to a gradient element: ±0, subnormals, ±Inf, NaN,
// values past fp16's range, then finite values across twelve decades.
func roundTripValue(b byte) float32 {
	specials := []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-40, float32(math.Inf(1)),
		float32(math.Inf(-1)), float32(math.NaN()), 7e4, -65520, 6e-8}
	if int(b) < len(specials) {
		return specials[b]
	}
	return float32(float64(int(b)-133) * math.Pow(10, float64(int(b)%12-8)))
}

func sameFloat(a, b float32) bool { return a == b || a != a && b != b }

// FuzzCompressorRoundTrip drives encode → decode for fp16, mask-compact (plain
// and ternary), its index list, and DGC and error-feedback top-k across two
// rounds, on gradients, masks, densities and momenta chosen by the fuzzer.
// The seeds hold an empty survivor set and a density whose n·ratio rounds to
// zero, where a selection must still keep one coordinate.
func FuzzCompressorRoundTrip(f *testing.F) {
	f.Add(uint8(16), uint8(0), uint8(128), []byte{40, 41, 42, 43, 44, 45, 46, 47, 48})
	f.Add(uint8(5), uint8(1), uint8(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(0), uint8(60), uint8(255), []byte{})
	f.Add(uint8(3), uint8(9), uint8(7), []byte{200, 11, 150})
	f.Fuzz(func(t *testing.T, nb, ratiob, momb uint8, data []byte) {
		n := int(nb) % 160
		if len(data) == 0 {
			data = []byte{10}
		}
		grad, grad2 := make([]float32, n), make([]float32, n)
		var mask []int32
		for i := range grad {
			b := data[i%len(data)]
			grad[i], grad2[i] = roundTripValue(b), roundTripValue(b^byte(i*37))
			if (b>>(i%8))&1 == 1 {
				mask = append(mask, int32(i))
			}
		}
		ratio := float64(ratiob%100+1) / 100

		// fp16: each element is its nearest binary16, so a second round trip
		// keeps it, and finite elements move by at most half a half-ulp.
		half := NewFP16().Encode(grad)
		for i, g := range grad {
			h := half[i]
			if again := HalfToFloat32(Float32ToHalf(h)); !sameFloat(again, h) {
				t.Fatalf("fp16 element %d: %v re-encodes to %v", i, h, again)
			}
			switch a := math.Abs(float64(g)); {
			case g != g:
				if h == h {
					t.Fatalf("fp16 element %d: NaN decodes to %v", i, h)
				}
			case a >= 65520:
				if !math.IsInf(float64(h), 0) || math.Signbit(float64(h)) != math.Signbit(float64(g)) {
					t.Fatalf("fp16 element %d: %v decodes to %v, want signed Inf", i, g, h)
				}
			case math.Abs(float64(h)-float64(g)) > max(a*0x1p-11, 0x1p-25):
				t.Fatalf("fp16 element %d: %v decodes to %v", i, g, h)
			}
		}

		// Mask-compact, plain and ternary, and the index list: the payload
		// holds the survivors in mask order and decodes onto them with +0
		// everywhere else; the index list decodes to the same values.
		for _, ternary := range []bool{false, true} {
			m := NewMaskCompact(ternary, uint64(momb))
			m.SetMask(mask, n)
			payload := m.Encode(grad)
			if len(payload) != len(mask) {
				t.Fatalf("mask-compact payload %d for %d survivors", len(payload), len(mask))
			}
			survivors := make([]float32, 0, len(mask))
			for _, j := range mask {
				survivors = append(survivors, grad[j])
			}
			s := tensor.MaxAbs(survivors) // the ternary scale
			out := make([]float32, n)
			for i := range out {
				out[i] = float32(math.NaN())
			}
			m.Decode(payload, out)
			at := 0
			for i, v := range out {
				if at < len(mask) && int(mask[at]) == i {
					p, g := payload[at], grad[i]
					ok := math.Float32bits(p) == math.Float32bits(g)
					if ternary { // a NaN or zero survivor is dropped
						ok = p == 0 || p == s && g > 0 || p == -s && g < 0
					}
					if !ok || math.Float32bits(v) != math.Float32bits(p) {
						t.Fatalf("mask-compact (ternary %v) survivor %d: grad %v, payload %v, decoded %v", ternary, i, g, p, v)
					}
					at++
				} else if math.Float32bits(v) != 0 {
					t.Fatalf("mask-compact: pruned coordinate %d decodes to %v", i, v)
				}
			}
			if ternary {
				continue
			}
			vals, idx := m.EncodeSparse(grad, nil)
			list := make([]float32, n)
			DecodeSumSparse(collective.SparsePayload{Values: vals, Indices: idx}, list)
			for i := range list {
				if !sameFloat(list[i], out[i]) {
					t.Fatalf("index list coordinate %d: %v, mask-compact %v", i, list[i], out[i])
				}
			}
		}

		// DGC and error-feedback top-k keep what they do not send: per round,
		// each sent coordinate carries the corrected gradient and its state
		// clears; every other coordinate keeps it. k never rounds to zero.
		if n == 0 {
			return
		}
		mom := float32(momb) / 256
		dgc := NewDGC(ratio, float64(mom))
		ef := WrapErrorFeedback(NewTopK(ratio))
		u, v, res := make([]float32, n), make([]float32, n), make([]float32, n)
		for _, g := range [][]float32{grad, grad2} {
			for i := range g {
				u[i] = mom*u[i] + g[i]
				v[i] += u[i]
				res[i] = g[i] + res[i]
			}
			checkSent(t, "dgc", dgc.Encode(g), ratioCount(n, ratio), v, dgc.v, u, dgc.u)
			checkSent(t, "topk+ef", ef.Encode(g), ratioCount(n, ratio), res, ef.residual, nil, nil)
		}
	})
}

// checkSent checks one sparse round: p sends k distinct coordinates, each
// with its value in want, and the compressor's state got (and gotU) equals
// want (and wantU) with the sent coordinates cleared, which it then mirrors in
// want and wantU. Decoding p into zeros yields the sent values.
func checkSent(t *testing.T, name string, p collective.SparsePayload, k int, want, got, wantU, gotU []float32) {
	t.Helper()
	if len(p.Indices) != k || len(p.Values) != k {
		t.Fatalf("%s: %d indices, %d values, want %d", name, len(p.Indices), len(p.Values), k)
	}
	out := make([]float32, len(want))
	DecodeSumSparse(p, out)
	seen := make(map[int32]bool)
	for i, j := range p.Indices {
		if seen[j] || j < 0 || int(j) >= len(want) {
			t.Fatalf("%s: index %d repeated or out of range", name, j)
		}
		seen[j] = true
		if !sameFloat(p.Values[i], want[j]) || !sameFloat(out[j], 0+want[j]) {
			t.Fatalf("%s: coordinate %d sent %v, decoded %v, accumulated %v", name, j, p.Values[i], out[j], want[j])
		}
		want[j] = 0
		if wantU != nil {
			wantU[j] = 0
		}
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) || wantU != nil && !sameFloat(gotU[i], wantU[i]) {
			t.Fatalf("%s: coordinate %d keeps %v, want %v", name, i, got[i], want[i])
		}
	}
}
