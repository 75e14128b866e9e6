package pactrain

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckDesignRefs pins the contract of .github/check-design-refs.sh, the
// CI step that keeps every "§N" pointing at a "## §N" heading of DESIGN.md:
// each case builds a small tree in a fresh git repository, runs the script
// there, and checks its verdict and the file:line it names. The fixtures
// spell the section sign \u00a7 so that this file holds no reference of
// its own.
func TestCheckDesignRefs(t *testing.T) {
	for _, tool := range []string{"bash", "git"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("%s not on PATH: %v", tool, err)
		}
	}
	script, err := filepath.Abs(filepath.Join(".github", "check-design-refs.sh"))
	if err != nil {
		t.Fatal(err)
	}
	const design = "# Design\n\n## \u00a71 Invariants\n\ntext\n\n## \u00a710 Kernels\n"
	cases := []struct {
		name  string
		files map[string]string
		want  string // the stderr line a failing run must hold; "" = passes
	}{
		{"resolved", map[string]string{
			"a.go":      "package a\n\n// See DESIGN.md \u00a710.\n",
			"README.md": "Invariants: DESIGN.md \u00a71.\n",
		}, ""},
		{"stale-in-go", map[string]string{
			"a.go": "package a\n\n// See DESIGN.md \u00a73.\n",
		}, "a.go:3:\u00a73: no \"## \u00a73\" heading"},
		{"split-across-comment-line", map[string]string{
			"a.go": "package a\n\n// The reason is in DESIGN.md\n// \u00a79, at its end.\n",
		}, "a.go:4:\u00a79"},
		{"prefix-of-a-heading", map[string]string{
			"ci.yml": "# DESIGN.md \u00a7100\n",
		}, "ci.yml:1:\u00a7100"},
		{"stale-in-readme", map[string]string{
			"README.md": "Read DESIGN.md \u00a74.\n",
		}, "README.md:1:\u00a74"},
		{"stale-in-design", map[string]string{
			"DESIGN.md": design + "\nAs \u00a72 says.\n",
		}, "DESIGN.md:9:\u00a72"},
		{"changes-is-history", map[string]string{
			"CHANGES.md": "Old DESIGN.md \u00a742 moved.\n",
		}, ""},
		{"paper-section", map[string]string{
			"a.go": "package a\n\n// The paper's \u00a7III-C.\n",
		}, ""},
		{"ignored-build-output", map[string]string{
			".gitignore": "out/\n",
			"out/x.go":   "// DESIGN.md \u00a78\n",
		}, ""},
		{"no-headings", map[string]string{
			"DESIGN.md": "# Design\n\n## Invariants\n",
		}, "DESIGN.md has no \"## \u00a7N\" heading"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string]string{"DESIGN.md": design}
			for name, body := range tc.files {
				files[name] = body
			}
			for name, body := range files {
				path := filepath.Join(dir, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if out, err := exec.Command("git", "-C", dir, "init", "-q").CombinedOutput(); err != nil {
				t.Fatalf("git init: %v: %s", err, out)
			}
			cmd := exec.Command("bash", script)
			cmd.Dir = dir
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				t.Fatal(err)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("script failed on a consistent tree: %v\n%s", err, stderr.String())
			case tc.want != "" && err == nil:
				t.Fatalf("script passed, want a failure naming %q", tc.want)
			case tc.want != "" && !strings.Contains(stderr.String(), tc.want):
				t.Fatalf("stderr %q does not name %q", stderr.String(), tc.want)
			}
		})
	}
}
