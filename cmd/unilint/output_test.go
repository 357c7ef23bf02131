package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestGoldenOutput pins the SARIF log byte-for-byte over the dirty fixture
// module: the finding order is RunAll's position sort, the paths are
// module-root-relative, and any change to the shape must be a deliberate
// golden update (regenerate with
// `go run . -sarif -dir testdata/dirtymod ./... > testdata/dirty.sarif`).
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		flag   string
		golden string
	}{
		{"-sarif", "testdata/dirty.sarif"},
	}
	for _, c := range cases {
		t.Run(c.flag, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{c.flag, "-dir", "testdata/dirtymod", "./..."}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit %d, want 1\nstderr:\n%s", code, stderr.String())
			}
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("%s output diverged from %s:\ngot:\n%s\nwant:\n%s", c.flag, c.golden, got, want)
			}
		})
	}
}

// TestExitCodeTable asserts the 0/1/2 contract holds identically in both
// output formats: clean module, dirty module, and a load error.
func TestExitCodeTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"text clean", []string{"-dir", "testdata/cleanmod", "./..."}, 0},
		{"sarif clean", []string{"-sarif", "-dir", "testdata/cleanmod", "./..."}, 0},
		{"text dirty", []string{"-dir", "testdata/dirtymod", "./..."}, 1},
		{"sarif dirty", []string{"-sarif", "-dir", "testdata/dirtymod", "./..."}, 1},
		{"sarif load error", []string{"-sarif", "-dir", os.TempDir(), "./..."}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestCleanSARIFShape: a clean SARIF log still carries the full rule table
// (so rule metadata resolves) and an empty results array.
func TestCleanSARIFShape(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sarif", "-dir", "testdata/cleanmod", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	var doc sarifLog
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("clean -sarif output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("version %q with %d runs, want 2.1.0 with 1", doc.Version, len(doc.Runs))
	}
	run0 := doc.Runs[0]
	if run0.Tool.Driver.Name != "unilint" {
		t.Errorf("driver name %q, want unilint", run0.Tool.Driver.Name)
	}
	if len(run0.Results) != 0 || run0.Results == nil {
		t.Errorf("clean run: %d results (nil=%v), want empty non-nil array", len(run0.Results), run0.Results == nil)
	}
	names := make(map[string]bool)
	for _, r := range run0.Tool.Driver.Rules {
		names[r.ID] = true
	}
	for _, want := range []string{"maporder", "poolonly", "sinkwrite", "floateq", "panicfree", "detokstale", "detok"} {
		if !names[want] {
			t.Errorf("rule table missing %q", want)
		}
	}
}
