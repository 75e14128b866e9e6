package core

import (
	"reflect"
	"testing"

	"pactrain/internal/compress"
)

// TestByNameAgreesWithSchemeTable holds compress.ByName, the vocabulary the
// benchmark's compression probes time, to the codecs the scheme table
// trains with: every scheme name or alias ByName accepts builds the row's
// codec, error feedback aside, so a codec parameter changed in one place
// only fails here.
func TestByNameAgreesWithSchemeTable(t *testing.T) {
	const seed = 0x9e3779b9
	accepted := map[string]bool{}
	for _, def := range schemeTable {
		for _, name := range append([]string{def.name}, def.aliases...) {
			probe, err := compress.ByName(name, seed)
			if err != nil {
				continue
			}
			accepted[name] = true
			if def.codec == nil {
				t.Errorf("ByName accepts %q, whose row states no codec", name)
				continue
			}
			row := def.codec(seed)
			if ef, ok := row.(*compress.ErrorFeedback); ok {
				row = ef.Inner
			}
			if !reflect.DeepEqual(probe, row) {
				t.Errorf("%s: ByName builds %#v, the scheme table %#v", name, probe, row)
			}
		}
	}
	// The names the benchmark's probes ask for must all be among them.
	for _, name := range []string{"fp16", "terngrad", "qsgd", "thc", "topk-0.1", "topk-0.01", "randomk-0.1", "dgc-0.01"} {
		if !accepted[name] {
			t.Errorf("ByName does not accept scheme %q", name)
		}
	}
}

// TestSchemeRowsStateCodecOrHook pins the table's shape: a row states a
// codec or builds its own hook, never both, and ps sits only on a dense
// codec's row.
func TestSchemeRowsStateCodecOrHook(t *testing.T) {
	for _, def := range schemeTable {
		if (def.codec == nil) == (def.build == nil) {
			t.Errorf("%s: states a codec %v, builds a hook %v; want exactly one", def.name, def.codec != nil, def.build != nil)
			continue
		}
		if !def.ps {
			continue
		}
		if def.codec == nil {
			t.Errorf("%s: ps on a row without a codec", def.name)
		} else if _, dense := def.codec(1).(compress.DenseCompressor); !dense {
			t.Errorf("%s: ps on a sparse codec's row", def.name)
		}
	}
}
