package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// goldenJSON holds, per workload, what seed 1 must reproduce at full size:
// report digests, job fingerprints, simulated seconds, weight checksums.
//
//go:embed golden.json
var goldenJSON []byte

// updateGolden makes checkGolden rewrite benchmark/golden.json instead of
// comparing against it (-update-golden, after a change that is meant to move
// report bytes).
var updateGolden bool

const goldenSeed = 1

// differing lists the keys whose digest in got is not the one in want.
func differing(want, got map[string]string) []string {
	var ids []string
	for id, d := range got {
		if want[id] != d {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// canonical re-encodes a value with sorted keys, so a struct and the map it
// was stored as compare equal.
func canonical(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var generic any
	if err := json.Unmarshal(raw, &generic); err != nil {
		return nil, err
	}
	return json.Marshal(generic)
}

// checkGolden compares a workload's exact outputs at seed 1 with the
// committed ones; any difference is a failed operation.
func checkGolden(r *run, section string, got any) {
	if r.seed != goldenSeed || r.tiny {
		return
	}
	path := filepath.Join("benchmark", "golden.json")
	stored := goldenJSON
	if updateGolden {
		// The file on disk may hold sections an earlier run just wrote.
		if raw, err := os.ReadFile(path); err == nil {
			stored = raw
		}
	}
	golden := make(map[string]json.RawMessage)
	if err := json.Unmarshal(stored, &golden); err != nil {
		r.fail("golden.json: %v", err)
		return
	}
	have, err := canonical(got)
	if err != nil {
		r.fail("golden %s: %v", section, err)
		return
	}
	if updateGolden {
		golden[section] = have
		raw, err := json.MarshalIndent(golden, "", " ")
		if err == nil {
			err = os.WriteFile(path, append(raw, '\n'), 0o644)
		}
		if err != nil {
			r.fail("golden %s: %v", section, err)
		}
		return
	}
	want, err := canonical(golden[section])
	if err != nil || !bytes.Equal(want, have) {
		r.fail("%s at seed %d differs from golden.json: got %s", section, goldenSeed, have)
	}
}
