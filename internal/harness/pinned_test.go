package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"pactrain/internal/audit"
	"pactrain/internal/obs"
)

// TestPinnedReportDigests holds every experiment's report bytes — the
// Render() text and the ReportJSON document of all twelve, run in canonical
// order under quickOpts — to digests recorded at the commit before the
// experiments shared one train step, one re-price function and one table
// renderer. The default row also pins the trace export and the audit
// artifact of one tracer and one auditor attached across the whole suite.
// A moved digest is a moved report byte: never re-record one to make a
// change pass.
func TestPinnedReportDigests(t *testing.T) {
	skipIfShort(t)
	t.Parallel()
	rows := []struct {
		name                string
		overlap, collective string
		reports             string
		trace, audit        string // pinned on the default row only
	}{
		{"default", "", "",
			"68b48d001c61b7832bcb0ef297576a43ebfa31ac18c7a3eddf1f60559f2cfda3",
			"b585bb7e2aee0f66e5631c98cfe773bc32405feb626f5aee471f3200d4b8f768",
			"f23120bd0da275f93589cc002cea950ca61ba22d3247d65092710b8ada3db180"},
		{"backward-hierarchical", "backward", "hierarchical",
			"9d487490b55c1e0e2df930f5f9da225453da5edfc01692c169eb2e0384c16c8f", "", ""},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			opt := quickOpts()
			opt.Overlap, opt.Collective = row.overlap, row.collective
			artifacts := row.name == "default"
			if artifacts {
				opt.Tracer, opt.Auditor = obs.NewTracer(), audit.NewCollector()
			}
			reports := sha256.New()
			for _, def := range Experiments() {
				rep, err := def.Run(opt)
				if err != nil {
					t.Fatalf("%s: %v", def.ID, err)
				}
				js, err := ReportJSON(def.ID, opt, rep)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(reports, "%s\n%s\n%s\n", def.ID, rep.Render(), js)
			}
			checkDigest(t, "reports", reports, row.reports)
			if !artifacts {
				return
			}
			raw, err := opt.Tracer.Build().JSON()
			if err != nil {
				t.Fatal(err)
			}
			trace := sha256.New()
			trace.Write(raw)
			checkDigest(t, "trace", trace, row.trace)
			raw, err = audit.MarshalReports(opt.Auditor.Reports())
			if err != nil {
				t.Fatal(err)
			}
			ledger := sha256.New()
			ledger.Write(raw)
			checkDigest(t, "audit", ledger, row.audit)
		})
	}
}

func checkDigest(t *testing.T, what string, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s digest %s, pinned %s", what, got, want)
	}
}
