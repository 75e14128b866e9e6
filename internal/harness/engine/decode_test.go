package engine

import (
	"encoding/json"
	"reflect"
	"testing"

	"pactrain/internal/core"
	"pactrain/internal/data"
)

// decodeEntryReference is decodeEntry through encoding/json alone: the
// oracle the one-pass decoder is held to.
func decodeEntryReference(raw []byte) (*core.Result, bool) {
	var entry cacheEntry
	if err := json.Unmarshal(raw, &entry); err != nil || entry.Version != cacheVersion ||
		entry.Result == nil || !entryCurrent(entry.Result) {
		return nil, false
	}
	entry.Result.WallSeconds = 0
	return entry.Result, true
}

// checkAgainstReference fails t unless decodeEntry gives the reference's
// verdict and Result, and unless whatever decodeFast accepts json.Unmarshal
// accepts too and builds the same, nil and empty slices and maps told apart.
func checkAgainstReference(t *testing.T, raw []byte) {
	t.Helper()
	got, gotOK := decodeEntry(raw)
	want, wantOK := decodeEntryReference(raw)
	if gotOK != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeEntry gives (%v, ok %v), encoding/json (%v, ok %v) on %q", got, gotOK, want, wantOK, raw)
	}
	if fast, ok := decodeFast(raw); ok {
		var ref cacheEntry
		if err := json.Unmarshal(raw, &ref); err != nil || !reflect.DeepEqual(fast, ref) {
			t.Fatalf("the one-pass decoder accepts what encoding/json makes %+v of (err %v): %q", ref, err, raw)
		}
	}
}

// TestFastPathTakesWhatEncodeEntryWrites: an entry of every scheme in the
// table, trained on the tiny config (adaptive long enough for its
// controller to decide), and one without a comm log, decodes through the
// one-pass decoder, not the fallback, into what encoding/json makes of it.
// Between them the entries carry every op kind and an adaptive decision. A
// field added to Result that the decoder does not know fails here instead
// of silently sending every entry down the fallback.
func TestFastPathTakesWhatEncodeEntryWrites(t *testing.T) {
	t.Parallel()
	results := map[string]*core.Result{}
	for _, scheme := range core.Schemes() {
		cfg := testConfig(scheme)
		if scheme == core.SchemeAdaptive {
			cfg.Epochs = 4
		}
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[scheme] = res
	}
	kinds := map[core.OpKind]bool{}
	decided := false
	noLog := *fittingResult()
	noLog.CommLog = nil
	results["no comm log"] = &noLog
	for name, res := range results {
		raw, err := encodeEntry(res)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := decodeFast(raw); !ok {
			t.Errorf("%s: the entry encodeEntry wrote falls back to encoding/json", name)
			continue
		}
		checkAgainstReference(t, raw)
		if res.CommLog == nil {
			continue
		}
		for _, ops := range res.CommLog.Iters {
			for _, op := range ops {
				kinds[op.Kind] = true
				decided = decided || op.Decision != ""
			}
		}
	}
	for _, k := range []core.OpKind{core.OpAllReduce, core.OpAllGather, core.OpPS, core.OpBlockSparse, core.OpBitmapBroadcast} {
		if !kinds[k] {
			t.Errorf("no scheme's entry carries an op of kind %d", k)
		}
	}
	if ad := results[core.SchemeAdaptive]; !decided || len(ad.AdaptiveDecisions) == 0 {
		t.Errorf("the adaptive entry carries no decision (%v)", ad.AdaptiveDecisions)
	}
}

// BenchmarkDecodeEntry decodes one quick-suite MLP entry (about 15 kB:
// eight ranks, six epochs, the curve at two points per epoch).
func BenchmarkDecodeEntry(b *testing.B) {
	cfg := core.DefaultConfig("MLP", "pactrain")
	cfg.World, cfg.Lite.Width, cfg.BatchSize, cfg.Epochs, cfg.EvalEvery = 8, 8, 8, 6, 2
	cfg.Data, cfg.TestSamples = data.CIFAR10Like(320, 12), 200
	res, err := core.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := encodeEntry(res)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := decodeEntry(raw); !ok {
			b.Fatal("entry refused")
		}
	}
}
