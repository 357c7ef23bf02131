package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTreeIsClean runs the full suite over the repo from inside the test
// binary. This is the in-test form of the CI gate: the working tree must
// carry zero unsuppressed findings at all times.
func TestTreeIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", "../..", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("unilint exit %d on the repo tree, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// TestDirtyModule points the driver at a module seeded with exactly two
// violations: a bare `go` statement outside parallel.go, and a reasonless
// //det:ok suppression. The map range in the same file must NOT fire —
// dirtymod is outside maporder's package scope.
func TestDirtyModule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", "testdata/dirtymod", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "poolonly: go statement outside parallel.go") {
		t.Errorf("missing the poolonly finding:\n%s", out)
	}
	if !strings.Contains(out, "detok: ") || !strings.Contains(out, "carries no reason") {
		t.Errorf("missing the reasonless-suppression finding:\n%s", out)
	}
	if strings.Contains(out, "maporder") {
		t.Errorf("maporder fired outside its package scope:\n%s", out)
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, name := range []string{"maporder", "poolonly", "sinkwrite", "floateq", "detokstale"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout.String())
		}
	}
}

func TestUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d on a bad flag, want 2", code)
	}
}

func TestLoadError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// t.TempDir() sits outside any Go module, so the loader cannot find a
	// go.mod walking up and must fail with a usage/load error.
	if code := run([]string{"-dir", t.TempDir(), "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d outside a module, want 2", code)
	}
	if stderr.Len() == 0 {
		t.Error("load error printed nothing to stderr")
	}
}
