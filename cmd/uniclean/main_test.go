package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clean"
	"repro/internal/gen"
)

const (
	exampleDir = "../../examples/transactions"
	lowconfDir = "../../examples/lowconf"
)

// TestRunExample drives the CLI end-to-end on the bundled example dataset
// and checks the repaired CSV and the report.
func TestRunExample(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "repaired.csv")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-data", filepath.Join(exampleDir, "data.csv"),
		"-conf", filepath.Join(exampleDir, "conf.csv"),
		"-master", filepath.Join(exampleDir, "master.csv"),
		"-rules", filepath.Join(exampleDir, "rules.txt"),
		"-out", outPath,
		"-v",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want := `FN,LN,St,city,AC,post,phn
Robert,Brady,501 Elm Row,Edi,131,EH7 4AH,3887644
Robert,Brady,501 Elm Row,Edi,131,EH7 4AH,3887644
Robert,Brady,501 Elm Row,Edi,131,EH7 4AH,3887644
Mary,Smith,20 Baker St,Ldn,020,NW1 6XE,7654321
Robert,Brady,501 Elm Row,Edi,131,EH7 4AH,3887644
`
	if got := strings.ReplaceAll(string(out), "\r\n", "\n"); got != want {
		t.Errorf("repaired CSV:\n%s\nwant:\n%s", got, want)
	}
	report := stderr.String()
	if !strings.Contains(report, "unresolved: -") {
		t.Errorf("report leaves rules unresolved:\n%s", report)
	}
	if !strings.Contains(report, "match md1.1:") || strings.Contains(report, "full scans) over |Dm|=0") {
		t.Errorf("report missing matcher statistics:\n%s", report)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each write a non-empty
// pprof file covering the run. The CPU profiler is process-global, so when
// the test binary itself profiles CPU (go test -cpuprofile) only the heap
// half is checked.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	mem := filepath.Join(dir, "mem.pprof")
	args := []string{
		"-data", filepath.Join(exampleDir, "data.csv"),
		"-conf", filepath.Join(exampleDir, "conf.csv"),
		"-master", filepath.Join(exampleDir, "master.csv"),
		"-rules", filepath.Join(exampleDir, "rules.txt"),
		"-out", filepath.Join(dir, "repaired.csv"),
		"-memprofile", mem,
	}
	paths := []string{mem}
	if f := flag.Lookup("test.cpuprofile"); f == nil || f.Value.String() == "" {
		cpu := filepath.Join(dir, "cpu.pprof")
		args = append(args, "-cpuprofile", cpu)
		paths = append(paths, cpu)
	}
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	for _, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

// TestRunCertifyExample: the full tri-level pipeline leaves the bundled
// example certified clean, so -certify succeeds (exit status 0).
func TestRunCertifyExample(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-data", filepath.Join(exampleDir, "data.csv"),
		"-conf", filepath.Join(exampleDir, "conf.csv"),
		"-master", filepath.Join(exampleDir, "master.csv"),
		"-rules", filepath.Join(exampleDir, "rules.txt"),
		"-certify",
		"-out", filepath.Join(t.TempDir(), "repaired.csv"),
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("certify on the clean example failed: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := exitCode(err); got != 0 {
		t.Errorf("exitCode = %d, want 0", got)
	}
}

// TestRunLowconfExample drives the hRepair showcase: with every confidence
// below eta, the city repair must come from hRepair as a possible fix, and
// the output must still certify clean.
func TestRunLowconfExample(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-data", filepath.Join(lowconfDir, "data.csv"),
		"-rules", filepath.Join(lowconfDir, "rules.txt"),
		"-defaultconf", "0.5",
		"-certify",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	report := stderr.String()
	if !strings.Contains(report, "1 possible fixes") {
		t.Errorf("report missing the hRepair possible fix:\n%s", report)
	}
	if !strings.Contains(report, "unresolved: -") {
		t.Errorf("lowconf example not fully resolved:\n%s", report)
	}
	if !strings.Contains(stdout.String(), "131,Edi,EH7 4AH,501 Elm Row") {
		t.Errorf("repaired CSV missing the hRepair city fix:\n%s", stdout.String())
	}
}

// TestExitStatusDirtyVsIO: a run that completes but leaves violations must
// be distinguishable (exit 2) from a run that cannot start (exit 1). With
// all confidences at zero, the MD premise never reaches eta, so the MD
// rules stay unresolved while hRepair still clears every CFD.
func TestExitStatusDirtyVsIO(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-data", filepath.Join(exampleDir, "data.csv"),
		"-master", filepath.Join(exampleDir, "master.csv"),
		"-rules", filepath.Join(exampleDir, "rules.txt"),
		"-defaultconf", "0",
		"-certify",
		"-out", filepath.Join(t.TempDir(), "repaired.csv"),
	}, &stdout, &stderr)
	if !errors.Is(err, errDirty) {
		t.Fatalf("dirty run error = %v, want errDirty", err)
	}
	if got := exitCode(err); got != 2 {
		t.Errorf("dirty exitCode = %d, want 2", got)
	}
	report := stderr.String()
	if !strings.Contains(report, "MD violations") || !strings.Contains(report, "violation: md") {
		t.Errorf("-certify did not print the violation report:\n%s", report)
	}
	if strings.Contains(report, "CFD violations") && !strings.Contains(report, "0 CFD violations") {
		t.Errorf("hRepair left CFD violations:\n%s", report)
	}

	err = run(context.Background(), []string{
		"-data", filepath.Join(exampleDir, "no-such-file.csv"),
		"-rules", filepath.Join(exampleDir, "rules.txt"),
	}, &stdout, &stderr)
	if err == nil || errors.Is(err, errDirty) {
		t.Fatalf("I/O error = %v, must be non-nil and distinct from errDirty", err)
	}
	if got := exitCode(err); got != 1 {
		t.Errorf("I/O exitCode = %d, want 1", got)
	}
	if got := exitCode(nil); got != 0 {
		t.Errorf("exitCode(nil) = %d, want 0", got)
	}
}

// TestRunCanceled is the CLI cancellation regression test: a canceled
// context — what SIGINT/SIGTERM or an expired -timeout produce — aborts the
// run with the typed cancellation error, exit status 3, and no repaired CSV
// on stdout.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	err := run(ctx, []string{
		"-data", filepath.Join(exampleDir, "data.csv"),
		"-master", filepath.Join(exampleDir, "master.csv"),
		"-rules", filepath.Join(exampleDir, "rules.txt"),
	}, &stdout, &stderr)
	if !errors.Is(err, clean.ErrCanceled) {
		t.Fatalf("err = %v, want clean.ErrCanceled", err)
	}
	if got := exitCode(err); got != 3 {
		t.Errorf("exitCode = %d, want 3", got)
	}
	if stdout.Len() != 0 {
		t.Errorf("canceled run wrote output:\n%s", stdout.String())
	}
}

// TestExitCodeTable pins the documented exit-status contract: 0 clean,
// 1 usage/IO error, 2 dirty, 3 cancelled/deadline.
func TestExitCodeTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"clean", nil, 0},
		{"io", os.ErrNotExist, 1},
		{"usage", errors.New("-data and -rules are required"), 1},
		{"dirty", fmt.Errorf("3 rules unresolved: %w", errDirty), 2},
		{"canceled", clean.ErrCanceled, 3},
		{"deadline", clean.ErrDeadline, 3},
		{"wrapped-canceled", fmt.Errorf("cleaning: %w", clean.ErrCanceled), 3},
	} {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestRunDegradedBudget: the soft -maxfixes budget must complete (not abort)
// with the degraded marker in the report.
func TestRunDegradedBudget(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-data", filepath.Join(exampleDir, "data.csv"),
		"-conf", filepath.Join(exampleDir, "conf.csv"),
		"-master", filepath.Join(exampleDir, "master.csv"),
		"-rules", filepath.Join(exampleDir, "rules.txt"),
		"-maxfixes", "1",
		"-out", filepath.Join(t.TempDir(), "repaired.csv"),
	}, &stdout, &stderr)
	if err != nil && !errors.Is(err, errDirty) {
		t.Fatalf("degraded run must complete (clean or dirty), got: %v", err)
	}
	if !strings.Contains(stderr.String(), "degraded: max-fixes") {
		t.Errorf("report missing the degraded marker:\n%s", stderr.String())
	}
}

// TestRunUpdatesReplay drives the -updates streaming replay: an append, a
// delete and an overwrite are accepted, invalid records are rejected with a
// message but do not abort, and the repaired output reflects the final
// instance (appended row present, deleted row tombstoned to nulls).
func TestRunUpdatesReplay(t *testing.T) {
	dir := t.TempDir()
	updates := filepath.Join(dir, "updates.csv")
	stream := "upsert,5,Mary,Smith,20 Baker St,Ldn,020,NW1 6XE,7654321\n" +
		"delete,2\n" +
		"delete,99\n" +
		"badop,1\n"
	if err := os.WriteFile(updates, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "repaired.csv")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-data", filepath.Join(exampleDir, "data.csv"),
		"-conf", filepath.Join(exampleDir, "conf.csv"),
		"-master", filepath.Join(exampleDir, "master.csv"),
		"-rules", filepath.Join(exampleDir, "rules.txt"),
		"-updates", updates,
		"-out", outPath,
	}, &stdout, &stderr)
	if err != nil && !errors.Is(err, errDirty) {
		t.Fatalf("replay run: %v\nstderr:\n%s", err, stderr.String())
	}
	report := stderr.String()
	if !strings.Contains(report, "replayed 2 updates (2 rejected)") {
		t.Errorf("missing replay summary:\n%s", report)
	}
	if !strings.Contains(report, "7 rules over 6 tuples") {
		t.Errorf("report does not reflect the appended tuple:\n%s", report)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(strings.ReplaceAll(string(out), "\r\n", "\n")), "\n")
	if len(lines) != 7 {
		t.Fatalf("repaired CSV has %d lines, want 7 (header + 6 tuples):\n%s", len(lines), out)
	}
	if lines[3] != "null,null,null,null,null,null,null" {
		t.Errorf("deleted tuple not tombstoned: %q", lines[3])
	}
	if !strings.HasPrefix(lines[6], "Mary,Smith") {
		t.Errorf("appended tuple missing: %q", lines[6])
	}
}

func TestRunMissingFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), nil, &stdout, &stderr); err == nil {
		t.Fatal("run without -data/-rules should fail")
	}
}

// TestRunRejectsOutOfRangeConfidence: -eta, -defaultconf and -bench.dirty
// outside [0,1] (NaN included) are usage errors with exit status 1 and no
// output, in batch and -updates mode alike — never a run on a nonsense
// threshold or error rate, nor a replay whose every upsert is rejected.
func TestRunRejectsOutOfRangeConfidence(t *testing.T) {
	dir := t.TempDir()
	updates := filepath.Join(dir, "updates.csv")
	if err := os.WriteFile(updates, []byte("upsert,5,Mary,Smith,20 Baker St,Ldn,020,NW1 6XE,7654321\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][]string{
		{"-eta", "NaN"},
		{"-eta", "-1"},
		{"-eta", "1.5"},
		{"-defaultconf", "2"},
		{"-defaultconf", "NaN"},
		{"-defaultconf", "-0.1"},
		{"-defaultconf", "2", "-updates", updates},
		{"-bench.dirty", "1.5"},
	} {
		outPath := filepath.Join(dir, "repaired.csv")
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), append([]string{
			"-data", filepath.Join(exampleDir, "data.csv"),
			"-master", filepath.Join(exampleDir, "master.csv"),
			"-rules", filepath.Join(exampleDir, "rules.txt"),
			"-certify",
			"-out", outPath,
		}, tc...), &stdout, &stderr)
		if got := exitCode(err); got != 1 || err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
			t.Errorf("%v: exitCode %d, err %v; want exit 1 with an out-of-range usage error", tc, got, err)
		}
		if _, statErr := os.Stat(outPath); statErr == nil {
			t.Errorf("%v: a rejected invocation wrote %s", tc, outPath)
			os.Remove(outPath)
		}
	}
}

// TestRunRejectsOutOfRangeCounts: -topl below 1 (every blocking lookup
// would come back empty), -bench.tuples and -bench.master below 1 (the
// generator would silently substitute its defaults), and negative
// -hbudget, -workers, -maxfixes, -deadline, -timeout, -bench.fanout and
// -bench.updates are usage errors with exit status 1 and no output, not
// runs that silently leave rules unresolved, ignore the budget or measure
// an instance other than the one the report names.
func TestRunRejectsOutOfRangeCounts(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-topl", "0"}, "-topl 0 below 1"},
		{[]string{"-topl", "-1"}, "-topl -1 below 1"},
		{[]string{"-hbudget", "-1"}, "-hbudget -1 is negative"},
		{[]string{"-workers", "-2"}, "-workers -2 is negative"},
		{[]string{"-maxfixes", "-1"}, "-maxfixes -1 is negative"},
		{[]string{"-deadline", "-1s"}, "-deadline -1s is negative"},
		{[]string{"-timeout", "-1ms"}, "-timeout -1ms is negative"},
		{[]string{"-bench.tuples", "0"}, "-bench.tuples 0 below 1"},
		{[]string{"-bench.master", "-5"}, "-bench.master -5 below 1"},
		{[]string{"-bench.fanout", "-1"}, "-bench.fanout -1 is negative"},
		{[]string{"-bench.updates", "-1"}, "-bench.updates -1 is negative"},
	} {
		outPath := filepath.Join(dir, "repaired.csv")
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), append([]string{
			"-data", filepath.Join(exampleDir, "data.csv"),
			"-master", filepath.Join(exampleDir, "master.csv"),
			"-rules", filepath.Join(exampleDir, "rules.txt"),
			"-defaultconf", "0.9",
			"-out", outPath,
		}, tc.args...), &stdout, &stderr)
		if got := exitCode(err); got != 1 || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: exitCode %d, err %v; want exit 1 with %q", tc.args, got, err, tc.want)
		}
		if _, statErr := os.Stat(outPath); statErr == nil {
			t.Errorf("%v: a rejected invocation wrote %s", tc.args, outPath)
			os.Remove(outPath)
		}
	}
}

func TestRunStdoutOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-data", filepath.Join(exampleDir, "data.csv"),
		"-rules", filepath.Join(exampleDir, "rules.txt"),
		"-master", filepath.Join(exampleDir, "master.csv"),
		"-defaultconf", "0.9",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "FN,LN,St,city,AC,post,phn\n") {
		t.Errorf("stdout is not the repaired CSV:\n%s", stdout.String())
	}
}

// TestRunBenchMode drives the -bench path on a small config: the JSON report
// must land at -bench.out with sane counters, a matching baseline must pass
// the gate, and a baseline demanding fewer visits must fail it.
func TestRunBenchMode(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_test.json")
	var stdout, stderr bytes.Buffer
	// One worker: a 500-tuple run is too small for the fan-outs to beat the
	// sequential engine on a loaded 2-core machine, so the self-gate's
	// parallel-speedup floor would trip on scheduling noise. The floor
	// itself is covered by TestCheckBaselineParallelGates.
	args := []string{
		"-bench",
		"-bench.tuples", "500", "-bench.master", "100",
		"-bench.dirty", "0.05", "-bench.seed", "7",
		"-bench.out", out,
		"-workers", "1",
	}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("bench run: %v\nstderr:\n%s", err, stderr.String())
	}
	rep, err := readBaseline(out)
	if err != nil {
		t.Fatalf("report unreadable: %v", err)
	}
	if rep.IncrementalVisits <= 0 || rep.ParallelVisits != rep.IncrementalVisits {
		t.Fatalf("implausible visit counters: %+v", rep)
	}
	if rep.Config.Tuples != 500 || rep.Config.MasterSize != 100 {
		t.Fatalf("report mislabels the generated instance: %+v", rep.Config)
	}
	if rep.Fixes == 0 {
		t.Fatal("bench workload produced no fixes")
	}

	// Gate against the just-written report: identical counters must pass.
	if err := run(context.Background(), append(args, "-bench.baseline", out), &stdout, &stderr); err != nil {
		t.Fatalf("gate against own report failed: %v", err)
	}

	// A baseline claiming far fewer visits must trip the gate.
	rep.IncrementalVisits /= 2
	buf, _ := json.Marshal(rep)
	tight := filepath.Join(dir, "tight.json")
	if err := os.WriteFile(tight, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), append(args, "-bench.baseline", tight), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("gate did not catch a visit regression: %v", err)
	}
}

// TestRunBenchHonorsCancellation: -bench runs under the invocation's
// context, so an expired -timeout or a SIGINT-canceled context aborts it
// with exit status 3 and writes no report — the update replay included.
func TestRunBenchHonorsCancellation(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_test.json")
	args := []string{
		"-bench",
		"-bench.tuples", "300", "-bench.master", "60", "-bench.updates", "10",
		"-bench.out", out,
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		args []string
	}{
		{"timeout", context.Background(), append(args, "-timeout", "1ns")},
		{"interrupt", canceled, args},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.ctx, tc.args, &stdout, &stderr)
		if got := exitCode(err); got != 3 {
			t.Errorf("%s: exitCode %d, err %v; want 3", tc.name, got, err)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Errorf("%s: an aborted bench wrote %s", tc.name, out)
			os.Remove(out)
		}
	}

	// The update replay checks the context too: with the batch runs done,
	// a cancel still stops it before any report field is filled.
	inst := gen.Generate(gen.Config{Tuples: 300, MasterSize: 60, ErrorRate: 0.05, RuleFanout: 3, Seed: 1})
	var rep benchReport
	err := runUpdateBench(canceled, inst, 10, 1, clean.DefaultOptions(), &rep, &bytes.Buffer{})
	if got := exitCode(err); got != 3 || rep.UpdateCount != 0 {
		t.Errorf("canceled update replay: exitCode %d, err %v, %d updates recorded; want 3 and none", got, err, rep.UpdateCount)
	}
}
