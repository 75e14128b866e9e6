package core

import (
	"fmt"
	"slices"

	"pactrain/internal/adaptive"
	"pactrain/internal/compress"
	"pactrain/internal/ddp"
)

// schemeDef is one row of the scheme registry: the canonical name the
// Config.Scheme vocabulary exposes, accepted aliases, a one-line
// description for the catalog endpoints, and either the compressor its
// transport carries (codec; ps sends a dense one through a parameter
// server) or, for a hook that encodes for itself, the hook's constructor.
type schemeDef struct {
	name    string
	aliases []string
	about   string
	codec   func(seed uint64) compress.Compressor
	ps      bool
	build   func(cfg *Config, env *hookEnv, seed uint64) ddp.Hook
}

// schemeTable lists every aggregation scheme Run accepts, in the canonical
// order Schemes reports. It is the single place a new scheme is added and
// the one statement of its codec and transport: a dense codec all-reduces,
// a sparse one all-gathers. validate, Run, Codec, Schemes, SchemeCatalog,
// `pactrain-bench -list-schemes` and the service's GET /v1/schemes read it.
var schemeTable = []schemeDef{
	{name: "all-reduce", aliases: []string{"fp32", "none"},
		about: "uncompressed fp32 ring all-reduce (the baseline)",
		codec: func(uint64) compress.Compressor { return compress.NewFP32() }},
	{name: "fp16",
		about: "half-precision dense all-reduce",
		codec: func(uint64) compress.Compressor { return compress.NewFP16() }},
	{name: "terngrad",
		about: "TernGrad stochastic ternary quantization over all-reduce",
		codec: func(seed uint64) compress.Compressor { return compress.NewTernGrad(seed) }},
	{name: "qsgd",
		about: "QSGD stochastic uniform quantization (256 levels)",
		codec: func(seed uint64) compress.Compressor { return compress.NewQSGD(256, seed) }},
	{name: "thc", ps: true,
		about: "THC homomorphic uniform quantization through a parameter server",
		codec: func(uint64) compress.Compressor { return compress.NewTHC(256) }},
	{name: "ps", ps: true,
		about: "uncompressed fp32 through a parameter server (incast baseline)",
		codec: func(uint64) compress.Compressor { return compress.NewFP32() }},
	{name: "topk-0.1",
		about: "top 10% magnitude selection with error feedback, sparse all-gather",
		codec: func(uint64) compress.Compressor { return compress.WrapErrorFeedback(compress.NewTopK(0.1)) }},
	{name: "topk-0.01",
		about: "top 1% magnitude selection with error feedback, sparse all-gather",
		codec: func(uint64) compress.Compressor { return compress.WrapErrorFeedback(compress.NewTopK(0.01)) }},
	{name: "randomk-0.1",
		about: "random 10% selection with error feedback, sparse all-gather",
		codec: func(seed uint64) compress.Compressor {
			return compress.WrapErrorFeedback(compress.NewRandomK(0.1, seed))
		}},
	{name: "dgc-0.1",
		about: "Deep Gradient Compression at 10% density (momentum correction)",
		codec: func(uint64) compress.Compressor { return compress.NewDGC(0.1, 0.9) }},
	{name: "dgc-0.01",
		about: "Deep Gradient Compression at 1% density (momentum correction)",
		codec: func(uint64) compress.Compressor { return compress.NewDGC(0.01, 0.9) }},
	{name: "omnireduce",
		about: "OmniReduce-style streaming non-zero-block aggregation",
		build: func(_ *Config, env *hookEnv, _ uint64) ddp.Hook {
			return &omniReduceHook{env: env, blockSize: 256}
		}},
	{name: "zen",
		about: "Zen-style exact non-zero coordinate all-gather",
		codec: func(uint64) compress.Compressor { return compress.NewNonZero() }},
	{name: "pactrain",
		about: "PacTrain pruning + GSE + Mask Tracker mask-compact all-reduce",
		build: func(cfg *Config, env *hookEnv, seed uint64) ddp.Hook {
			return newPacTrainHook(env, cfg, adaptive.FormatCompact, nil, seed)
		}},
	{name: "pactrain-ternary",
		about: "PacTrain with the §III-D ternary stage on the compact path",
		build: func(cfg *Config, env *hookEnv, seed uint64) ddp.Hook {
			return newPacTrainHook(env, cfg, adaptive.FormatCompactTernary, nil, seed)
		}},
	{name: SchemeAdaptive,
		about: "PacTrain pipeline with a cost-model controller picking the wire format per bucket per round",
		build: func(cfg *Config, env *hookEnv, seed uint64) ddp.Hook {
			return newPacTrainHook(env, cfg, "", newController(cfg, env), seed)
		}},
}

// schemeByName resolves a canonical name or alias to its registry row.
func schemeByName(name string) (schemeDef, bool) {
	for _, def := range schemeTable {
		if def.name == name {
			return def, true
		}
		for _, alias := range def.aliases {
			if alias == name {
				return def, true
			}
		}
	}
	return schemeDef{}, false
}

// Schemes lists the canonical scheme names in registry order — the
// vocabulary Config.Scheme accepts (aliases excluded).
func Schemes() []string {
	out := make([]string, len(schemeTable))
	for i, def := range schemeTable {
		out[i] = def.name
	}
	return out
}

// SchemeInfo is one catalog entry for the scheme listing surfaces
// (`pactrain-bench -list-schemes`, GET /v1/schemes).
type SchemeInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Aliases     []string `json:"aliases,omitempty"`
}

// SchemeCatalog lists every scheme with its description and aliases, in
// registry order.
func SchemeCatalog() []SchemeInfo {
	out := make([]SchemeInfo, len(schemeTable))
	for i, def := range schemeTable {
		out[i] = SchemeInfo{Name: def.name, Description: def.about, Aliases: slices.Clone(def.aliases)}
	}
	return out
}

// Codec returns the compressor scheme name trains with, built at seed. It
// errors for an unknown name and for a row whose hook encodes for itself.
func Codec(name string, seed uint64) (compress.Compressor, error) {
	def, ok := schemeByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown scheme %q (have %v)", name, Schemes())
	}
	if def.codec == nil {
		return nil, fmt.Errorf("core: scheme %q encodes in its own hook and has no codec", name)
	}
	return def.codec(seed), nil
}

// buildHook constructs rank env.rank's communication hook from its scheme's
// row, which Run resolved before any rank started. A dense codec rides the
// all-reduce (or the parameter server), one instance for every bucket; a
// sparse codec rides the all-gather, one instance per bucket.
func buildHook(cfg *Config, def schemeDef, env *hookEnv) ddp.Hook {
	seed := cfg.Seed*1009 + uint64(env.rank)*31 + 7
	if def.build != nil {
		return def.build(cfg, env, seed)
	}
	if comp, ok := def.codec(seed).(compress.DenseCompressor); ok {
		return &denseHook{env: env, comp: comp, ps: def.ps}
	}
	return &sparseHook{env: env, mk: func() compress.SparseCompressor { return def.codec(seed).(compress.SparseCompressor) },
		perBkt: make(map[int]compress.SparseCompressor)}
}
