package harness

import (
	"pactrain/internal/audit"
	"pactrain/internal/core"
)

// This file hangs the decision-audit layer (internal/audit) off the
// experiment harness the same way trace.go hangs the tracer: the train step
// (Options.train) audits controller-driven runs from their recorded results
// after the grid completes, in submission order, so the collected artifact
// is deterministic at any engine parallelism and the experiment reports are
// byte-identical with or without an auditor attached.

// AuditRun audits one recorded run on the fabric its config describes (see
// audit.Replay). label names the report; empty keeps the model/scheme
// default.
func AuditRun(label string, cfg core.Config, res *core.Result, opt audit.Options) (*audit.Report, error) {
	rep, err := audit.Replay(cfg, res, opt)
	if err != nil {
		return nil, err
	}
	rep.Label = label
	return rep, nil
}
