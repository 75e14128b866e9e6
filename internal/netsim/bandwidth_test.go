package netsim

import (
	"math"
	"slices"
	"testing"
)

// presetSpeeds are the link speeds the experiments and topology defaults use.
var presetSpeeds = []float64{100 * Mbps, 500 * Mbps, 1 * Gbps, 10 * Gbps, 40 * Gbps}

func TestParseBandwidth(t *testing.T) {
	accept := []struct {
		in   string
		want float64
	}{
		{"100mbps", 100 * Mbps},
		{"1gbps", 1 * Gbps},
		{" 2.5GBPS ", 2.5 * Gbps},
		{"1 Gbps", 1 * Gbps},
		{"1e3mbps", 1 * Gbps},
		{"0.5mbps", 0.5 * Mbps},
	}
	for _, c := range accept {
		got, err := ParseBandwidth(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBandwidth(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	reject := []string{
		"", "1", "gbps", "fast", "1kbps", "100mbit",
		"0gbps", "-0mbps", "-5mbps", "1e-400mbps", // non-positive
		"nanmbps", "infgbps", "+Infmbps", // not a speed
		"1e999gbps", "1e305gbps", // out of float64's range, before or after the unit
		"1gbpsgbps", "1gbps x", "x1gbps", "1..0mbps", "1 2mbps", "0x", // garbage around the number
	}
	for _, in := range reject {
		if got, err := ParseBandwidth(in); err == nil {
			t.Errorf("ParseBandwidth(%q) = %v, want an error", in, got)
		}
	}
	for _, bps := range presetSpeeds {
		label := FormatBandwidth(bps)
		if got, err := ParseBandwidth(label); err != nil || got != bps {
			t.Errorf("ParseBandwidth(%q) = %v, %v; want %v", label, got, err, bps)
		}
	}
}

// FuzzParseBandwidth holds the -bw decoder to its contract on arbitrary
// text: whatever it accepts is a speed AddLink takes, and a preset speed
// survives the trip through its own label.
func FuzzParseBandwidth(f *testing.F) {
	for _, bps := range presetSpeeds {
		f.Add(FormatBandwidth(bps))
	}
	for _, s := range []string{"100mbps", "0gbps", "-5mbps", "nanmbps", "1gbpsgbps", "1e999gbps", "0x1p-2gbps", "1_0mbps"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		bps, err := ParseBandwidth(s)
		if err != nil {
			return
		}
		if !(bps > 0) || math.IsInf(bps, 0) {
			t.Fatalf("ParseBandwidth(%q) accepted %v", s, bps)
		}
		if slices.Contains(presetSpeeds, bps) {
			if back, err := ParseBandwidth(FormatBandwidth(bps)); err != nil || back != bps {
				t.Fatalf("%q: %v formats as %q, which parses to %v, %v", s, bps, FormatBandwidth(bps), back, err)
			}
		}
	})
}
