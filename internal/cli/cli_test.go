package cli_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binDir holds the three commands, built once from this checkout.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pactrain-cli-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"pactrain/cmd/pactrain-bench", "pactrain/cmd/pactrain-train", "pactrain/cmd/pactrain-topo")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes one built command in dir and returns its exit code and stderr.
func run(t *testing.T, dir, name string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestUsageErrorsExitTwo pins the exit vocabulary: a command line the program
// cannot run exits 2 with one line naming the program, whichever command and
// whichever flag, and never reaches the code that would panic or fall back
// to a default.
func TestUsageErrorsExitTwo(t *testing.T) {
	t.Parallel()
	cases := [][]string{
		{"pactrain-bench", "-collective", "mesh"},
		{"pactrain-bench", "-overlap", "sideways"},
		{"pactrain-bench", "-exp", "fig99"},
		{"pactrain-bench", "-trace-summary"},
		{"pactrain-bench", "-validate-trace"},
		{"pactrain-bench", "-audit-staleness", "3"},
		{"pactrain-train", "-collective", "mesh"},
		{"pactrain-train", "-overlap", "sideways"},
		{"pactrain-train", "-prune-method", "random"},
		{"pactrain-train", "-audit-summary"},
		{"pactrain-topo", "-collective", "mesh"},
		{"pactrain-topo", "-topology", "torus"},
	}
	for _, name := range []string{"pactrain-train", "pactrain-topo"} {
		for _, bw := range []string{"0gbps", "-5mbps", "nanmbps", "1gbpsgbps"} {
			cases = append(cases, []string{name, "-bw", bw})
		}
	}
	// This one used to reach netsim.AddLink and panic there.
	cases = append(cases, []string{"pactrain-topo", "-bw", "-5mbps", "-topology", "flat"})
	for _, c := range cases {
		code, stderr := run(t, t.TempDir(), c[0], c[1:]...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2; stderr:\n%s", c, code, stderr)
			continue
		}
		if strings.Contains(stderr, "goroutine ") {
			t.Errorf("%v: panicked:\n%s", c, stderr)
		}
		first, _, _ := strings.Cut(stderr, "\n")
		if !strings.HasPrefix(first, c[0]+": ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: stderr is not one line under the program's name:\n%s", c, stderr)
		}
		if c[1] == "-bw" && !strings.Contains(first, "-bw: ") {
			t.Errorf("%v: message %q does not name the flag", c, first)
		}
	}
}

// TestRetiredPerfFlagIsUndefined: the perf lane left no flag behind.
func TestRetiredPerfFlagIsUndefined(t *testing.T) {
	t.Parallel()
	code, stderr := run(t, t.TempDir(), "pactrain-bench", "-perf")
	if code != 2 || !strings.HasPrefix(stderr, "flag provided but not defined: -perf\n") {
		t.Errorf("pactrain-bench -perf: exit %d, want 2 and package flag's undefined-flag line; stderr:\n%s", code, stderr)
	}
}

// TestKernelParallelFlagIsUndefined: serial kernels left no kernel-budget
// flag behind.
func TestKernelParallelFlagIsUndefined(t *testing.T) {
	t.Parallel()
	code, stderr := run(t, t.TempDir(), "pactrain-train", "-kernel-parallel", "2")
	if code != 2 || !strings.HasPrefix(stderr, "flag provided but not defined: -kernel-parallel\n") {
		t.Errorf("pactrain-train -kernel-parallel 2: exit %d, want 2 and package flag's undefined-flag line; stderr:\n%s", code, stderr)
	}
}

// TestProfilesSurviveFailedRun runs pactrain-train into a failure after
// training (an unwritable -trace) and checks both profiles were still
// written: the deferred stop must run on the way to a non-zero exit.
func TestProfilesSurviveFailedRun(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	code, stderr := run(t, dir, "pactrain-train", "-model", "MLP", "-epochs", "1", "-samples", "64", "-world", "2",
		"-cpuprofile", "c.pprof", "-memprofile", "m.pprof", "-trace", "/nonexistent/t.json")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if cpu, err := os.Stat(filepath.Join(dir, "c.pprof")); err != nil {
		t.Errorf("CPU profile after a failed run: %v", err)
	} else if cpu.Size() == 0 {
		t.Errorf("CPU profile after a failed run is empty")
	}
	if _, err := os.Stat(filepath.Join(dir, "m.pprof")); err != nil {
		t.Errorf("heap profile after a failed run: %v", err)
	}
}
