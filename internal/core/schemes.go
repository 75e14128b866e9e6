package core

import (
	"fmt"

	"pactrain/internal/adaptive"
	"pactrain/internal/compress"
	"pactrain/internal/ddp"
)

// schemeDef is one row of the scheme registry: the canonical name the
// Config.Scheme vocabulary exposes, accepted aliases, a one-line
// description for the catalog endpoints, and the hook constructor.
type schemeDef struct {
	name    string
	aliases []string
	about   string
	build   func(cfg *Config, env *hookEnv, seed uint64) ddp.Hook
}

// schemeTable lists every aggregation scheme Run accepts, in the canonical
// order Schemes reports. It is the single place a new scheme is added and
// the one statement of its transport: the hook a row builds picks the
// collective (dense rows all-reduce, sparse rows all-gather), and ps on a
// dense row sends it through a parameter server instead; compressors are
// codecs only. buildHook, Schemes, SchemeCatalog, `pactrain-bench
// -list-schemes`, and the service's GET /v1/schemes all read it.
func schemeTable() []schemeDef {
	return []schemeDef{
		{name: "all-reduce", aliases: []string{"fp32", "none"},
			about: "uncompressed fp32 ring all-reduce (the baseline)",
			build: func(_ *Config, env *hookEnv, _ uint64) ddp.Hook {
				return &denseHook{env: env, comp: compress.NewFP32()}
			}},
		{name: "fp16",
			about: "half-precision dense all-reduce",
			build: func(_ *Config, env *hookEnv, _ uint64) ddp.Hook {
				return &denseHook{env: env, comp: compress.NewFP16()}
			}},
		{name: "terngrad",
			about: "TernGrad stochastic ternary quantization over all-reduce",
			build: func(_ *Config, env *hookEnv, seed uint64) ddp.Hook {
				return &denseHook{env: env, comp: compress.NewTernGrad(seed)}
			}},
		{name: "qsgd",
			about: "QSGD stochastic uniform quantization (256 levels)",
			build: func(_ *Config, env *hookEnv, seed uint64) ddp.Hook {
				return &denseHook{env: env, comp: compress.NewQSGD(256, seed)}
			}},
		{name: "thc",
			about: "THC homomorphic uniform quantization (all-reducible)",
			build: func(_ *Config, env *hookEnv, _ uint64) ddp.Hook {
				return &denseHook{env: env, comp: compress.NewTHC(256), ps: true}
			}},
		{name: "ps",
			about: "uncompressed fp32 through a parameter server (incast baseline)",
			build: func(_ *Config, env *hookEnv, _ uint64) ddp.Hook {
				return &denseHook{env: env, comp: compress.NewFP32(), ps: true}
			}},
		{name: "topk-0.1",
			about: "top 10% magnitude selection with error feedback, sparse all-gather",
			build: sparseBuilder(func(_ uint64) compress.SparseCompressor {
				return compress.WrapErrorFeedback(compress.NewTopK(0.1))
			})},
		{name: "topk-0.01",
			about: "top 1% magnitude selection with error feedback, sparse all-gather",
			build: sparseBuilder(func(_ uint64) compress.SparseCompressor {
				return compress.WrapErrorFeedback(compress.NewTopK(0.01))
			})},
		{name: "randomk-0.1",
			about: "random 10% selection with error feedback, sparse all-gather",
			build: sparseBuilder(func(seed uint64) compress.SparseCompressor {
				return compress.WrapErrorFeedback(compress.NewRandomK(0.1, seed))
			})},
		{name: "dgc-0.1",
			about: "Deep Gradient Compression at 10% density (momentum correction)",
			build: sparseBuilder(func(_ uint64) compress.SparseCompressor {
				return compress.NewDGC(0.1, 0.9)
			})},
		{name: "dgc-0.01",
			about: "Deep Gradient Compression at 1% density (momentum correction)",
			build: sparseBuilder(func(_ uint64) compress.SparseCompressor {
				return compress.NewDGC(0.01, 0.9)
			})},
		{name: "omnireduce",
			about: "OmniReduce-style streaming non-zero-block aggregation",
			build: func(_ *Config, env *hookEnv, _ uint64) ddp.Hook {
				return &omniReduceHook{env: env, blockSize: 256}
			}},
		{name: "zen",
			about: "Zen-style exact non-zero coordinate all-gather",
			build: func(_ *Config, env *hookEnv, _ uint64) ddp.Hook {
				return &zenHook{env: env}
			}},
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
}

// sparseBuilder adapts a per-bucket SparseCompressor factory into a scheme
// constructor (TopK, RandomK, DGC all ride the sparse all-gather hook).
func sparseBuilder(mk func(seed uint64) compress.SparseCompressor) func(*Config, *hookEnv, uint64) ddp.Hook {
	return func(_ *Config, env *hookEnv, seed uint64) ddp.Hook {
		return &sparseHook{env: env, mk: func() compress.SparseCompressor { return mk(seed) },
			perBkt: make(map[int]compress.SparseCompressor)}
	}
}

// schemeByName resolves a canonical name or alias to its registry row.
func schemeByName(name string) (schemeDef, bool) {
	for _, def := range schemeTable() {
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
	defs := schemeTable()
	out := make([]string, len(defs))
	for i, def := range defs {
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
	defs := schemeTable()
	out := make([]SchemeInfo, len(defs))
	for i, def := range defs {
		out[i] = SchemeInfo{Name: def.name, Description: def.about, Aliases: def.aliases}
	}
	return out
}

// buildHook constructs the per-worker communication hook for the config's
// scheme via the registry.
func buildHook(cfg *Config, env *hookEnv) (ddp.Hook, error) {
	def, ok := schemeByName(cfg.Scheme)
	if !ok {
		return nil, fmt.Errorf("core: unknown scheme %q (have %v)", cfg.Scheme, Schemes())
	}
	seed := cfg.Seed*1009 + uint64(env.rank)*31 + 7
	return def.build(cfg, env, seed), nil
}
