package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/clean"
	"repro/internal/gen"
	"repro/internal/relation"
)

// spec is one workload: the generator configuration its inputs come from
// and how many ops it runs per round.
type spec struct {
	name string
	cfg  gen.Config
	// masterShare is the fraction of the generated master rows the engine
	// is given; providers past that prefix have no master record.
	masterShare float64
	quota       int // ops per round
	updates     int // > 0 makes this a stream workload replaying that many updates
}

// specs returns the four workloads with their tuple, master and update
// counts divided by div: 1 for the benchmark, more for the smoke test.
// Why each workload exists is recorded in README.md and BENCHMARK.json.
func specs(div int) []spec {
	hosp := gen.DefaultConfig()
	heavy := hosp
	heavy.Tuples, heavy.MasterSize = 4000, 4000
	skew := hosp
	skew.MasterSize, skew.HotZipRate, skew.ErrorRate, skew.StubbornRate, skew.Conf = 500, 0.6, 0.1, 0.3, 0.6
	upd := hosp
	upd.Tuples, upd.MasterSize = 2000, 300
	out := []spec{
		{name: "hosp-10k", cfg: hosp, masterShare: 1, quota: 10},
		{name: "master-heavy", cfg: heavy, masterShare: 1, quota: 10},
		{name: "skew-lowconf", cfg: skew, masterShare: 0.4, quota: 10},
		{name: "stream-2k", cfg: upd, masterShare: 1, quota: 30, updates: 300},
	}
	for i := range out {
		s := &out[i]
		s.cfg.Tuples = max(1, s.cfg.Tuples/div)
		s.cfg.MasterSize = max(1, s.cfg.MasterSize/div)
		s.updates = (s.updates + div - 1) / div
	}
	return out
}

// workload is the state one spec needs while it runs: its generated
// inputs, its reference outputs and everything measured about it.
type workload struct {
	spec
	inst   *gen.Instance
	master *relation.Relation // the master the engine sees
	truth  *relation.Relation // inst.Data before error injection
	opts   clean.Options
	engine engineOps

	setup    []time.Duration
	samples  []sample
	failed   int
	errs     []error
	quality  quality
	residual int // certified violations of the reference run
}

// engineOps is what differs between a batch and a stream workload.
type engineOps interface {
	// construct does one fresh set-up, the work setup_s times.
	construct(w *workload) error
	// round runs one round's quota of timed ops and their checks; a
	// stream's state is checked again at the end of every round.
	round(w *workload)
	// trace runs up to n ops decomposed into spans and returns each
	// op's per-layer counters. Before each traced op it runs the same op
	// untraced and returns its wall time, the baseline of the tracing
	// overhead.
	trace(w *workload, tr *tracer, n int) ([]map[string]float64, []time.Duration, error)
}

var errMismatch = errors.New("output differs from the reference")

// sequential is the options of every reference run: the pool is off, so a
// reference cannot share a scheduling bug with the run it checks.
func sequential() clean.Options {
	o := clean.DefaultOptions()
	o.Workers = 1
	return o
}

// newWorkload generates the spec's inputs with the given seed and computes
// its reference outputs and repair quality.
func newWorkload(s spec, seed int64) (*workload, error) {
	cfg := s.cfg
	cfg.Seed = seed
	w := &workload{spec: s, inst: gen.Generate(cfg), opts: clean.DefaultOptions()}
	clean0 := cfg
	clean0.ErrorRate = 0
	w.truth = gen.Generate(clean0).Data
	m := w.inst.Master
	w.master = &relation.Relation{Schema: m.Schema, Tuples: m.Tuples[:int(float64(m.Len())*s.masterShare)]}
	var err error
	if s.updates > 0 {
		w.engine, err = newStream(w)
	} else {
		w.engine, err = newBatch(w)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	return w, nil
}

// fail records a failed check that covers n ops, keeping the first five
// errors for the report.
func (w *workload) fail(n int, err error) {
	w.failed += n
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err)
	}
}

// csvInput is a relation encoded the way the CLI reads it: values and
// confidences as two CSV documents.
type csvInput struct {
	name       string
	vals, conf []byte
}

func encode(r *relation.Relation) (csvInput, error) {
	var v, c bytes.Buffer
	if err := r.WriteCSV(&v); err != nil {
		return csvInput{}, err
	}
	if err := r.WriteConfCSV(&c); err != nil {
		return csvInput{}, err
	}
	return csvInput{name: r.Schema.Name, vals: v.Bytes(), conf: c.Bytes()}, nil
}

func (in csvInput) load() (*relation.Relation, error) {
	r, err := relation.ReadCSV(in.name, bytes.NewReader(in.vals))
	if err != nil {
		return nil, err
	}
	if err := relation.ReadConfCSV(r, bytes.NewReader(in.conf)); err != nil {
		return nil, err
	}
	return r, nil
}

// loadBoth parses the data and master inputs of one op.
func loadBoth(data, master csvInput) (*relation.Relation, *relation.Relation, error) {
	d, err := data.load()
	if err != nil {
		return nil, nil, err
	}
	m, err := master.load()
	if err != nil {
		return nil, nil, err
	}
	return d, m, nil
}

// fingerprint hashes every output a run must reproduce: fixes, asserts,
// conflicts, the certified report and the repaired cells.
func fingerprint(res *clean.Result) [32]byte {
	h := sha256.New()
	for _, f := range res.Fixes {
		fmt.Fprintf(h, "%d %d %q %q %s %d %q\n", f.Tuple, f.Attr, f.Old, f.New,
			strconv.FormatFloat(f.Conf, 'g', -1, 64), f.Mark, f.Rule)
	}
	fmt.Fprintf(h, "asserts %d\n", res.Asserts)
	for _, c := range res.Conflicts {
		fmt.Fprintf(h, "conflict %q\n", c)
	}
	io.WriteString(h, res.Report.String())
	for _, t := range res.Data.Tuples {
		fmt.Fprintf(h, "%q\n", t.Values)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// quality is the repair accuracy of a run against the ground truth.
type quality struct {
	precision, recall, f1 float64
}

// measureQuality compares repaired with the dirty input and the truth, cell
// by cell, over the tuples keep selects (nil selects all of dirty).
// Precision is correct changes over changed cells, recall correct changes
// over erroneous cells.
func measureQuality(dirty, repaired, truth *relation.Relation, keep func(i int) bool) quality {
	var changed, correct, wrong int
	for i, d := range dirty.Tuples {
		if keep != nil && !keep(i) {
			continue
		}
		r, t := repaired.Tuples[i], truth.Tuples[i]
		for a, v := range d.Values {
			if v != t.Values[a] {
				wrong++
			}
			if r.Values[a] != v {
				changed++
				if r.Values[a] == t.Values[a] {
					correct++
				}
			}
		}
	}
	q := quality{precision: ratio(correct, changed), recall: ratio(correct, wrong)}
	if q.precision+q.recall > 0 {
		q.f1 = 2 * q.precision * q.recall / (q.precision + q.recall)
	}
	return q
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// batch is a workload whose op is the CLI's path: parse the CSV inputs,
// clean, write the repaired CSV.
type batch struct {
	data, master csvInput
	ref          [32]byte // fingerprint of the sequential reference run
}

func newBatch(w *workload) (*batch, error) {
	b := &batch{}
	var err error
	if b.data, err = encode(w.inst.Data); err != nil {
		return nil, err
	}
	if b.master, err = encode(w.master); err != nil {
		return nil, err
	}
	ref, err := b.run(w, sequential())
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	b.ref = fingerprint(ref)
	w.quality = measureQuality(w.inst.Data, ref.Data, w.truth, nil)
	w.residual = ref.Report.NumCFD() + ref.Report.NumMD()
	return b, nil
}

func (b *batch) construct(w *workload) error {
	data, master, err := loadBoth(b.data, b.master)
	if err != nil {
		return err
	}
	clean.NewContext(context.Background(), data, master, w.inst.Rules, w.opts)
	return nil
}

// run is one op: load, clean, write.
func (b *batch) run(w *workload, opts clean.Options) (*clean.Result, error) {
	data, master, err := loadBoth(b.data, b.master)
	if err != nil {
		return nil, err
	}
	res, err := clean.RunContext(context.Background(), data, master, w.inst.Rules, opts)
	if err != nil {
		return nil, err
	}
	return res, res.Data.WriteCSV(io.Discard)
}

func (b *batch) round(w *workload) {
	for q := 0; q < w.quota; q++ {
		var res *clean.Result
		s, err := measure(func() (err error) {
			res, err = b.run(w, w.opts)
			return err
		})
		w.samples = append(w.samples, s)
		if err == nil && fingerprint(res) != b.ref {
			err = errMismatch
		}
		if err != nil {
			w.fail(1, fmt.Errorf("op %d: %w", len(w.samples)-1, err))
		}
	}
}

func (b *batch) trace(w *workload, tr *tracer, n int) ([]map[string]float64, []time.Duration, error) {
	perOp := make([]map[string]float64, n)
	untraced := make([]time.Duration, n)
	for k := range perOp {
		var plain *clean.Result
		s, err := measure(func() (err error) {
			plain, err = b.run(w, w.opts)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("untraced op %d: %w", k, err)
		}
		untraced[k] = s.wall
		res, passes, err := decompose(tr, "op", k, b.data, b.master, w)
		if err != nil {
			return nil, nil, fmt.Errorf("traced op %d: %w", k, err)
		}
		if fingerprint(plain) != b.ref || fingerprint(res) != b.ref {
			w.fail(1, fmt.Errorf("traced op %d: %w", k, errMismatch))
		}
		perOp[k] = counters(res, passes)
	}
	return perOp, untraced, nil
}
