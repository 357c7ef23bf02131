package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// tiny divides the workload sizes so a whole traced run takes well under a
// second.
const tiny = 50

func tinyConfig(t *testing.T, seed int64) config {
	return config{seed: seed, specs: specs(tiny), window: time.Millisecond, trace: true, traceDir: t.TempDir()}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(buf, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func emitted(ms []metric) []declaredMetric {
	out := make([]declaredMetric, len(ms))
	for i, m := range ms {
		out[i] = declaredMetric{Name: m.name, Unit: m.unit}
	}
	return out
}

func sameMetrics(got, want []declaredMetric) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestEveryDeclaredMetricIsEmitted runs every workload once, traced, and
// checks its metrics against BENCHMARK.json and its trace files.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	decl := readDeclaration(t)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, s := range specs(1) {
		have = append(have, s.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", names, have)
	}

	cfg := tinyConfig(t, 1)
	rs, _, err := bench(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkTraceFiles(t, cfg)
	for _, r := range rs {
		if r.failed != 0 {
			t.Errorf("%s: %d failed ops: %v", r.name, r.failed, r.errs)
		}
		if got := emitted(r.e2e); !sameMetrics(got, decl.EndToEnd) {
			t.Errorf("%s end-to-end metrics\n got  %v\n want %v", r.name, got, decl.EndToEnd)
		}
		if got := emitted(r.layer); !sameMetrics(got, decl.PerLayer) {
			t.Errorf("%s per-layer metrics\n got  %v\n want %v", r.name, got, decl.PerLayer)
		}
	}

	// One workload's result line carries the declared metrics under their
	// bare names: the end-to-end ones, or the per-layer ones when traced.
	for _, traced := range []bool{false, true} {
		line, err := resultLine(rs[:1], traced)
		if err != nil {
			t.Fatal(err)
		}
		var res jsonResult
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		want := decl.EndToEnd
		if traced {
			want = decl.PerLayer
		}
		if len(res.Metrics) != len(want) || !res.Correct || res.Attempted < 1 {
			t.Errorf("traced=%v: result line %s", traced, line)
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s missing or not in %s: %+v", traced, m.Name, m.Unit, got)
			}
		}
	}
}

func TestSeedIsPlumbedThrough(t *testing.T) {
	// Counters and quality depend only on the inputs, so they repeat
	// exactly for one seed and move with another.
	deterministic := []string{
		"crepair.visits", "erepair.visits", "hrepair.visits", "certify.pairs",
		"match.candidates", "stream.visits_per_update", "residual_violations",
		"repair_precision", "repair_recall", "repair_f1",
	}
	values := func(seed int64) map[string]map[string]float64 {
		rs, _, err := bench(tinyConfig(t, seed), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]map[string]float64)
		for _, r := range rs {
			out[r.name] = make(map[string]float64)
			for _, m := range append(r.e2e, r.layer...) {
				out[r.name][m.name] = m.value
			}
		}
		return out
	}
	a, b, c := values(1), values(1), values(2)
	for w := range a {
		moved := false
		for _, name := range deterministic {
			if a[w][name] != b[w][name] {
				t.Errorf("%s %s: %v then %v with the same seed", w, name, a[w][name], b[w][name])
			}
			moved = moved || a[w][name] != c[w][name]
		}
		if !moved {
			t.Errorf("%s: seed 2 gives the same deterministic metrics as seed 1", w)
		}
	}
}

// checkTraceFiles checks that each workload's trace parses and that every
// child span lies inside its parent.
func checkTraceFiles(t *testing.T, cfg config) {
	t.Helper()
	for _, s := range cfg.specs {
		buf, err := os.ReadFile(filepath.Join(cfg.traceDir, s.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var f traceFile
		if err := json.Unmarshal(buf, &f); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(f.TraceEvents) == 0 {
			t.Fatalf("%s: empty trace", s.name)
		}
		const slack = 1e-3 // µs: ts and dur are rounded separately
		for i, e := range f.TraceEvents {
			if e.Args.Span != i || e.Ph != "X" || e.Dur < 0 {
				t.Fatalf("%s: malformed event %d: %+v", s.name, i, e)
			}
			if e.Args.Parent < 0 {
				continue
			}
			p := f.TraceEvents[e.Args.Parent]
			if e.Args.Op != p.Args.Op || e.Ts < p.Ts-slack || e.Ts+e.Dur > p.Ts+p.Dur+slack {
				t.Errorf("%s: span %d %s [%v, +%v] op %d is not inside its parent %s [%v, +%v] op %d",
					s.name, i, e.Name, e.Ts, e.Dur, e.Args.Op, p.Name, p.Ts, p.Dur, p.Args.Op)
			}
		}
	}
}

// The repair_* metrics take the ground truth from gen.Generate with the
// same config and ErrorRate 0. That holds only while error injection runs
// after the clean world is drawn; if the generator changes that, this test
// fails instead of the F1 going silently wrong.
func TestGroundTruthIsTheCleanWorld(t *testing.T) {
	for _, s := range specs(1) {
		for _, seed := range []int64{1, 2} {
			cfg := s.cfg
			cfg.Seed = seed
			dirty := gen.Generate(cfg)
			cfg.ErrorRate = 0
			truth := gen.Generate(cfg)
			if truth.Dirtied != 0 {
				t.Fatalf("%s seed %d: %d cells dirtied at ErrorRate 0", s.name, seed, truth.Dirtied)
			}
			if dirty.Master.Len() != truth.Master.Len() || dirty.Master.DiffCells(truth.Master) != 0 {
				t.Errorf("%s seed %d: the master differs between the dirty and the clean instance", s.name, seed)
			}
			for i, tu := range truth.Master.Tuples {
				for a, c := range tu.Conf {
					if dirty.Master.Tuples[i].Conf[a] != c {
						t.Fatalf("%s seed %d: master confidence of t%d differs", s.name, seed, i)
					}
				}
			}
			if dirty.Data.Len() != truth.Data.Len() {
				t.Fatalf("%s seed %d: %d dirty tuples, %d clean", s.name, seed, dirty.Data.Len(), truth.Data.Len())
			}
			if n := dirty.Data.DiffCells(truth.Data); n == 0 || n > dirty.Dirtied {
				t.Errorf("%s seed %d: %d cells differ from the clean world, want 1..%d", s.name, seed, n, dirty.Dirtied)
			}
		}
	}
}

func TestOutputAndExitStatus(t *testing.T) {
	var out bytes.Buffer
	cfg := tinyConfig(t, 3)
	cfg.specs, cfg.trace = cfg.specs[:1], false
	if code := execute(cfg, &out, io.Discard); code != 0 {
		t.Fatalf("exit status %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want 4", len(res))
	}

	for _, args := range [][]string{{"-trace", "2"}, {"-seconds", "0"}, {"-workload", "nope"}, {"extra"}} {
		out.Reset()
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run %v: exit status %d, stdout %q; want 2 and nothing", args, code, out.String())
		}
	}
}
