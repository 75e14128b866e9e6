// Package cli holds what pactrain-bench, pactrain-train and pactrain-topo
// share: the flag blocks more than one of them takes, registered once with
// one help string each, and one exit vocabulary — 1 when the run failed, 2
// when the command line was wrong (package flag's own code for an undefined
// flag).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pactrain/internal/collective"
	"pactrain/internal/ddp"
	"pactrain/internal/prof"
)

// Fail reports err on stderr under the program's name and returns the exit
// code of a failed run.
func Fail(err error) int { return report(err, 1) }

// Usage is Fail for a bad command line.
func Usage(err error) int { return report(err, 2) }

func report(err error, code int) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	return code
}

// Collective registers -collective; validate it with collective.AlgorithmByName
// or Common.Check.
func Collective(fs *flag.FlagSet) *string {
	return fs.String("collective", "", "collective algorithm pricing every all-reduce: ring|tree|hierarchical (empty = ring)")
}

// Common is the pricing, trace, audit and profile flags pactrain-bench and
// pactrain-train both take.
type Common struct {
	Collective, Overlap *string
	TracePath           *string
	TraceSummary        *bool
	AuditPath           *string
	AuditSummary        *bool
	AuditStaleness      *float64

	cpuProfile, memProfile *string
}

// Register declares the Common flags on fs.
func Register(fs *flag.FlagSet) *Common {
	return &Common{
		Collective:     Collective(fs),
		Overlap:        fs.String("overlap", "", "backward-overlap model for every job: none|backward (empty = none)"),
		TracePath:      fs.String("trace", "", "write a Chrome trace-event JSON of every traced run to this file (open in Perfetto)"),
		TraceSummary:   fs.Bool("trace-summary", false, "print the per-span aggregate of the collected trace to stderr (requires -trace)"),
		AuditPath:      fs.String("audit", "", "write the counterfactual audit ledger (controller regret + cost-model calibration) as JSON to this file"),
		AuditSummary:   fs.Bool("audit-summary", false, "print the regret/calibration/switch tables of the collected audit to stderr (requires -audit)"),
		AuditStaleness: fs.Float64("audit-staleness", 0, "age the audit's bandwidth observations by this many seconds to probe calibration drift (requires -audit)"),
		cpuProfile:     fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProfile:     fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Check returns the parsed -overlap, or the first usage error among the
// Common flags: an unknown -collective or -overlap, or a summary or
// staleness flag without the output flag it modifies.
func (c *Common) Check() (ddp.Overlap, error) {
	if _, err := collective.CanonicalAlgorithm(*c.Collective); err != nil {
		return 0, err
	}
	if *c.TraceSummary && *c.TracePath == "" {
		return 0, errors.New("-trace-summary requires -trace")
	}
	if (*c.AuditSummary || *c.AuditStaleness != 0) && *c.AuditPath == "" {
		return 0, errors.New("-audit-summary and -audit-staleness require -audit")
	}
	return ddp.ParseOverlap(*c.Overlap)
}

// StartProfiles begins the profiles -cpuprofile and -memprofile ask for; the
// caller defers the returned stop inside the function whose result main
// passes to os.Exit, so that every exit path writes them.
func (c *Common) StartProfiles() (stop func(), err error) {
	return prof.Start(*c.cpuProfile, *c.memProfile)
}
