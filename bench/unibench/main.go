// Command unibench is the end-to-end benchmark of the UniClean engine.
//
// It builds four workloads from internal/gen with one seed and runs them in
// interleaved rounds: each round runs every workload's op quota back to
// back, one client per workload in a closed loop, until the timed window
// has passed and at least ten rounds have run. The engine runs with Workers = GOMAXPROCS. Every op's output
// is checked against a sequential reference outside the timed window. With
// -trace 1 a separate pass after the timed rounds decomposes ops into spans
// around calls into the layers' exported API, reports per-layer metrics,
// and writes the spans as Chrome trace-event JSON, one file per workload.
//
// Run it from the repository root:
//
//	bash bench/unibench/run.sh -seed 1
//	bash bench/unibench/run.sh -workload hosp-10k -seed 2 -seconds 20 -trace 1
//
// Every metric is printed by name with its unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics, or with -trace 1 the per-layer ones
// (keys are prefixed "workload/" when several workloads run). The exit
// status is 0 when every check passed, 1 when a check failed or the
// benchmark could not run, 2 for bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	setupRuns = 5  // fresh constructions before the timed rounds; each round adds one
	tracedOps = 10 // ops per workload in the traced pass
)

// metricDef names a per-layer metric and its unit; BENCHMARK.json declares
// the same names and units.
type metricDef struct{ name, unit string }

var perLayerDefs = []metricDef{
	{"relation.load_ms", "ms"},
	{"clean.new_ms", "ms"},
	{"suffixtree.build_ms", "ms"},
	{"suffixtree.topl_us", "us"},
	{"suffixtree.common_us", "us"},
	{"suffixtree.candidates_per_query", "count"},
	{"similarity.verify_us", "us"},
	{"match.lookups", "count"},
	{"match.candidates", "count"},
	{"match.verified", "count"},
	{"match.useful_ratio", "ratio"},
	{"match.full_scans", "count"},
	{"crepair.ms", "ms"},
	{"crepair.visits", "count"},
	{"crepair.fixes", "count"},
	{"erepair.ms", "ms"},
	{"erepair.visits", "count"},
	{"erepair.groups_resolved", "count"},
	{"hrepair.ms", "ms"},
	{"hrepair.visits", "count"},
	{"hrepair.fixes", "count"},
	{"clean.passes", "count"},
	{"clean.rounds", "count"},
	{"certify.ms", "ms"},
	{"certify.pairs", "count"},
	{"certify.patched_rules", "count"},
	{"residual_violations", "count"},
	{"pool.pooled_share", "ratio"},
	{"pool.max_worker_share", "ratio"},
	{"stream.visits_per_update", "count"},
	{"relation.write_ms", "ms"},
	{"gc.cycles_per_op", "count"},
	{"gc.pause_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
	{"host.probe_ms", "ms"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var names string
	var seconds, traceOn int
	fs.Int64Var(&c.seed, "seed", 1, "workload seed: the same seed builds the same inputs")
	fs.StringVar(&names, "workload", "", "comma-separated workloads to run, interleaved (default all)")
	fs.StringVar(&names, "workloads", "", "same as -workload")
	fs.IntVar(&seconds, "seconds", 10, "timed window per workload, in seconds")
	fs.IntVar(&traceOn, "trace", 0, "1 adds the traced pass and reports the per-layer metrics")
	fs.StringVar(&c.traceDir, "trace-dir", "", "directory for the trace files (default: a new temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || seconds < 1 || (traceOn != 0 && traceOn != 1) {
		fmt.Fprintln(stderr, "unibench: want [-seed N] [-workload a,b] [-seconds N >= 1] [-trace 0|1] [-trace-dir DIR]")
		return 2
	}
	var err error
	if c.specs, err = selectSpecs(specs(1), names); err != nil {
		fmt.Fprintf(stderr, "unibench: %v\n", err)
		return 2
	}
	c.window = time.Duration(seconds) * time.Second
	// Ten rounds keep every workload at 100 ops or more, so op_ms_p90 has
	// at least ten samples beyond it even when the window is short.
	c.minRounds = 10
	c.trace = traceOn == 1
	return execute(c, stdout, stderr)
}

// selectSpecs picks the named workloads, keeping their order in all.
func selectSpecs(all []spec, names string) ([]spec, error) {
	if names == "" {
		return all, nil
	}
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		want[n] = true
	}
	var out []spec
	for _, s := range all {
		if want[s.name] {
			out = append(out, s)
			delete(want, s.name)
		}
	}
	for n := range want {
		return nil, fmt.Errorf("unknown workload %q", n)
	}
	return out, nil
}

// config is one benchmark invocation.
type config struct {
	seed      int64
	specs     []spec
	window    time.Duration // timed window per workload
	minRounds int           // rounds run even when the window has passed
	trace     bool
	traceDir  string // where the traced pass writes; "" makes a temporary directory
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// result is everything reported about one workload.
type result struct {
	name              string
	e2e, layer, extra []metric
	attempted, failed int
	errs              []error
}

// execute runs the benchmark and prints its results; it returns the exit
// status.
func execute(c config, stdout, stderr io.Writer) int {
	rs, traceDir, err := bench(c, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "unibench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "unibench: seed %d, GOMAXPROCS %d, %v timed per workload\n",
		c.seed, runtime.GOMAXPROCS(0), c.window)
	if traceDir != "" {
		fmt.Fprintf(stdout, "unibench: traces in %s\n", traceDir)
	}
	failed := 0
	for _, r := range rs {
		for _, group := range [][]metric{r.e2e, r.extra, r.layer} {
			for _, m := range group {
				fmt.Fprintf(stdout, "%-13s %-32s %14.6g %-5s %s\n", r.name, m.name, m.value, m.unit, m.note)
			}
		}
		for _, e := range r.errs {
			fmt.Fprintf(stderr, "unibench: %s: %v\n", r.name, e)
		}
		failed += r.failed
	}
	line, err := resultLine(rs, c.trace)
	if err != nil {
		fmt.Fprintf(stderr, "unibench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed > 0 {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the final JSON line: the end-to-end metrics, or the
// per-layer ones when traced.
func resultLine(rs []result, traced bool) ([]byte, error) {
	out := jsonResult{Metrics: make(map[string]jsonMetric)}
	for _, r := range rs {
		out.Attempted += r.attempted
		out.Failed += r.failed
		ms := r.e2e
		if traced {
			ms = r.layer
		}
		for _, m := range ms {
			key := m.name
			if len(rs) > 1 {
				key = r.name + "/" + m.name
			}
			out.Metrics[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	out.Correct = out.Failed == 0
	return json.Marshal(out)
}

// bench prepares the workloads, runs the timed rounds and, when asked, the
// traced pass. It returns the traced pass's output directory.
func bench(c config, log io.Writer) ([]result, string, error) {
	hp := newProbe()
	ws := make([]*workload, 0, len(c.specs))
	for _, s := range c.specs {
		fmt.Fprintf(log, "unibench: preparing %s\n", s.name)
		w, err := newWorkload(s, c.seed)
		if err != nil {
			return nil, "", err
		}
		for range setupRuns {
			if err := w.timeSetup(); err != nil {
				return nil, "", err
			}
		}
		ws = append(ws, w)
	}

	runtime.GC()
	deadline := time.Now().Add(c.window * time.Duration(len(ws)))
	for round := 0; round < max(1, c.minRounds) || time.Now().Before(deadline); round++ {
		for _, w := range ws {
			w.engine.round(w)
			// One more set-up per round spreads setup_s's samples over the
			// window, so machine drift moves it as it moves the ops; the
			// probe follows each workload's round for the same reason.
			if err := w.timeSetup(); err != nil {
				return nil, "", err
			}
			hp.run()
			hp.run()
		}
	}
	scale := hp.scale()
	rs := make([]result, len(ws))
	for i, w := range ws {
		rs[i] = result{name: w.name, e2e: w.endToEnd(scale), attempted: len(w.samples)}
	}

	dir := ""
	if c.trace {
		var err error
		if dir, err = traceDir(c.traceDir); err != nil {
			return nil, "", err
		}
		for i, w := range ws {
			layer, share, ops, err := tracedPass(w, filepath.Join(dir, w.name+".json"), hp)
			if err != nil {
				return nil, "", fmt.Errorf("%s: traced pass: %w", w.name, err)
			}
			rs[i].layer, rs[i].extra = layer, []metric{share}
			rs[i].attempted += ops
		}
	}
	for i, w := range ws {
		r := &rs[i]
		r.failed, r.errs = w.failed, w.errs
		r.extra = append(r.extra, metric{name: "op_error_rate", unit: "ratio", value: ratio(w.failed, r.attempted)})
		if !c.trace { // traced, these are per-layer metrics
			r.extra = append(r.extra,
				metric{name: "residual_violations", unit: "count", value: float64(w.residual)},
				metric{name: "host.probe_ms", unit: "ms", value: ms(hp.median()),
					note: fmt.Sprintf("times are scaled by %.4g to a host where it takes %v", scale, probeRef)})
		}
	}
	return rs, dir, nil
}

func traceDir(dir string) (string, error) {
	if dir == "" {
		return os.MkdirTemp("", "unibench-trace-")
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// timeSetup times one fresh construction for setup_s.
func (w *workload) timeSetup() error {
	t0 := time.Now()
	if err := w.engine.construct(w); err != nil {
		return fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	w.setup = append(w.setup, time.Since(t0))
	return nil
}

// endToEnd computes the end-to-end metrics of the timed rounds, with times
// multiplied by scale (see probeRef).
func (w *workload) endToEnd(scale float64) []metric {
	n := len(w.samples)
	walls := make([]float64, n)
	cpus := make([]float64, n)
	var total time.Duration
	var alloc uint64
	for i, s := range w.samples {
		walls[i], cpus[i] = ms(s.wall), ms(s.cpu)
		total += s.wall
		alloc += s.alloc
	}
	setup := make([]float64, len(w.setup))
	for i, d := range w.setup {
		setup[i] = d.Seconds()
	}
	p50, p90 := quantile(walls, 0.5), quantile(walls, 0.9)
	beyond := 0
	for _, v := range walls {
		if v > p90 {
			beyond++
		}
	}
	setupMed, rate, cpu := quantile(setup, 0.5), float64(n)/total.Seconds(), quantile(cpus, 0.5)
	return []metric{
		{"setup_s", "s", scale * setupMed, fmt.Sprintf("median of %d; raw %.4g s", len(setup), setupMed)},
		{"op_ms_p50", "ms", scale * p50, fmt.Sprintf("n=%d; raw %.4g ms", n, p50)},
		{"op_ms_p90", "ms", scale * p90, fmt.Sprintf("n=%d, %d beyond; raw %.4g ms", n, beyond, p90)},
		{"ops_per_s", "1/s", rate / scale, fmt.Sprintf("raw %.4g/s", rate)},
		{"cpu_ms_per_op", "ms", scale * cpu, fmt.Sprintf("median; raw %.4g ms", cpu)},
		{"alloc_mb_per_op", "MB", float64(alloc) / 1e6 / float64(n), ""},
		{"repair_precision", "ratio", w.quality.precision, ""},
		{"repair_recall", "ratio", w.quality.recall, ""},
		{"repair_f1", "ratio", w.quality.f1, ""},
	}
}

// tracedPass runs the traced ops and the index replay and returns the
// per-layer metrics, times scaled by the probe, the share of the
// decomposed op's wall time the layer spans cover, and the number of ops
// run, traced and untraced.
func tracedPass(w *workload, path string, hp *probe) ([]metric, metric, int, error) {
	scale := hp.scale()
	tr := newTracer()
	perOp, untraced, err := w.engine.trace(w, tr, tracedOps)
	if err != nil {
		return nil, metric{}, 0, err
	}
	wall, self := tr.spanTimes()
	opSpan := "op"
	if w.updates > 0 {
		opSpan = "stream.update"
	}
	traced := make([]float64, len(perOp))
	plain := make([]float64, len(perOp))
	shares := make([]float64, len(perOp))
	for k, vals := range perOp {
		plain[k] = ms(untraced[k])
		var layers time.Duration
		for _, l := range layerSpans {
			vals[l.metric] = scale * ms(self[k][l.span])
			layers += self[k][l.span]
		}
		traced[k] = ms(wall[k][opSpan])
		shares[k] = 100 * float64(layers) / float64(wall[k]["op"]+wall[k]["oracle"])
	}

	values := make(map[string]float64)
	for name := range perOp[0] {
		col := make([]float64, len(perOp))
		for k, vals := range perOp {
			col[k] = vals[name]
		}
		values[name] = quantile(col, 0.5)
	}
	idx, err := replayIndex(w, scale)
	if err != nil {
		return nil, metric{}, 0, err
	}
	for name, v := range idx {
		values[name] = v
	}
	var gcs uint32
	var pause time.Duration
	for _, s := range w.samples {
		gcs += s.gcs
		pause += s.pause
	}
	n := float64(len(w.samples))
	values["gc.cycles_per_op"] = float64(gcs) / n
	values["gc.pause_ms_per_op"] = scale * ms(pause) / n
	values["residual_violations"] = float64(w.residual)
	values["trace.overhead_pct"] = 100 * (quantile(traced, 0.5)/quantile(plain, 0.5) - 1)
	values["host.probe_ms"] = ms(hp.median())

	layer := make([]metric, len(perLayerDefs))
	for i, d := range perLayerDefs {
		v, ok := values[d.name]
		if !ok {
			return nil, metric{}, 0, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		layer[i] = metric{name: d.name, unit: d.unit, value: v}
	}
	share := metric{name: "trace.layer_share_pct", unit: "%", value: quantile(shares, 0.5),
		note: "median share of the decomposed op's wall time in layer spans"}
	return layer, share, 2 * len(perOp), tr.write(path, w.name)
}
