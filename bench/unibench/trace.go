package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/clean"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/similarity"
	"repro/internal/suffixtree"
)

// span is one timed call, kept in memory until the trace is written.
type span struct {
	name       string
	op         int // the op the span belongs to; -1 for set-up
	parent     int // index of the enclosing span; -1 for a root
	start, end time.Duration
}

// tracer records nested spans around calls made on one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs fn inside a span named name, a child of the innermost open span.
func (t *tracer) do(name string, op int, fn func()) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.epoch)
}

// spanTimes sums, per op and span name, the spans' wall time and their
// self time: wall time minus the time their child spans cover.
func (t *tracer) spanTimes() (wall, self map[int]map[string]time.Duration) {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	wall = make(map[int]map[string]time.Duration)
	self = make(map[int]map[string]time.Duration)
	for i, s := range t.spans {
		if wall[s.op] == nil {
			wall[s.op] = make(map[string]time.Duration)
			self[s.op] = make(map[string]time.Duration)
		}
		wall[s.op][s.name] += s.end - s.start
		self[s.op][s.name] += s.end - s.start - children[i]
	}
	return wall, self
}

// traceEvent is one Chrome trace-event "complete" event; ts and dur are in
// microseconds.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	Op     int `json:"op"`
	Span   int `json:"span"`
	Parent int `json:"parent"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// write saves the spans as Chrome trace-event JSON, which Perfetto opens.
func (t *tracer) write(path, workload string) error {
	f := traceFile{TraceEvents: make([]traceEvent, len(t.spans)), DisplayTimeUnit: "ms"}
	for i, s := range t.spans {
		f.TraceEvents[i] = traceEvent{
			Name: s.name, Cat: workload, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: traceArgs{Op: s.op, Span: i, Parent: s.parent},
		}
	}
	buf, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// layerSpans maps the spans decompose records to their per-layer metrics.
var layerSpans = []struct{ span, metric string }{
	{"relation.load", "relation.load_ms"},
	{"clean.new", "clean.new_ms"},
	{"crepair", "crepair.ms"},
	{"erepair", "erepair.ms"},
	{"hrepair", "hrepair.ms"},
	{"certify", "certify.ms"},
	{"relation.write", "relation.write_ms"},
}

// decompose runs one batch op under a root span, splitting it into the
// calls RunContext makes, each in its own span: parse, construct, the
// outer cRepair → eRepair → hRepair loop with runAll's termination test
// (no new fixes or asserts, at most 1 + cells passes), certify, write.
func decompose(tr *tracer, root string, op int, data, master csvInput, w *workload) (res *clean.Result, passes int, err error) {
	tr.do(root, op, func() {
		var d, m *relation.Relation
		tr.do("relation.load", op, func() { d, m, err = loadBoth(data, master) })
		if err != nil {
			return
		}
		var e *clean.Engine
		tr.do("clean.new", op, func() { e = clean.NewContext(context.Background(), d, m, w.inst.Rules, w.opts) })
		r := e.Result()
		for limit := 1 + d.Len()*d.Schema.Arity(); passes < limit; {
			before := len(r.Fixes) + r.Asserts
			passes++
			tr.do("clean.pass", op, func() {
				tr.do("crepair", op, e.CRepair)
				tr.do("erepair", op, e.ERepair)
				tr.do("hrepair", op, e.HRepair)
			})
			if len(r.Fixes)+r.Asserts == before {
				break
			}
		}
		tr.do("certify", op, func() { res = e.Finish() })
		tr.do("relation.write", op, func() { err = res.Data.WriteCSV(io.Discard) })
	})
	return res, passes, err
}

// counters reads the per-layer work counters of one run: an update of a
// stream, or a whole batch run.
func counters(res *clean.Result, passes int) map[string]float64 {
	var c, e, h int
	for _, a := range res.Apply {
		c, e, h = c+a.CTuples, e+a.ETuples, h+a.HTuples
	}
	var m clean.MatchStats
	for _, s := range res.Match {
		m.Lookups += s.Lookups
		m.Candidates += s.Candidates
		m.Verified += s.Verified
		m.FullScans += s.FullScans
	}
	// The pool's split of visits between workers depends on scheduling;
	// the traced pass reports the median over its ops.
	var pooled, busiest int64
	for _, v := range res.WorkerVisits {
		pooled += v
		busiest = max(busiest, v)
	}
	maxShare := 0.0
	if pooled > 0 {
		maxShare = float64(busiest) * float64(len(res.WorkerVisits)) / float64(pooled)
	}
	return map[string]float64{
		"crepair.visits":           float64(c),
		"crepair.fixes":            float64(len(res.DeterministicFixes())),
		"erepair.visits":           float64(e),
		"erepair.groups_resolved":  float64(res.GroupsResolved),
		"hrepair.visits":           float64(h),
		"hrepair.fixes":            float64(len(res.PossibleFixes())),
		"clean.passes":             float64(passes),
		"clean.rounds":             float64(res.Rounds + res.HRounds),
		"match.lookups":            float64(m.Lookups),
		"match.candidates":         float64(m.Candidates),
		"match.verified":           float64(m.Verified),
		"match.useful_ratio":       ratio(m.Verified, m.Candidates),
		"match.full_scans":         float64(m.FullScans),
		"certify.pairs":            float64(res.Report.CertVisits),
		"certify.patched_rules":    float64(res.Report.Patched),
		"pool.pooled_share":        ratio(int(pooled), res.TotalVisits()),
		"pool.max_worker_share":    maxShare,
		"stream.visits_per_update": float64(res.TotalVisits()),
	}
}

// indexReplays is how many times each index call batch is repeated; the
// replay reports the median.
const indexReplays = 3

// sink keeps the compiler from discarding replayed calls.
var sink int

// replayIndex times, from outside the engine, the suffix-tree and
// similarity calls match.go makes for the workload's edit-distance MD: the
// tree is built over the distinct master values of the clause's master
// attribute, then queried with every data value of its data attribute,
// exactly as block (TopL) and certCandidates (StringsWithCommonSubstring)
// query it, and the TopL candidates are verified with Within. Times are
// multiplied by scale.
func replayIndex(w *workload, scale float64) (map[string]float64, error) {
	cl, ok := editClause(w.inst.Rules)
	if !ok {
		return nil, fmt.Errorf("%s: no edit-distance MD to replay", w.name)
	}
	k, _ := cl.Pred.EditThreshold()
	var names []string
	seen := make(map[string]bool)
	for _, t := range w.master.Tuples {
		if v := t.Values[cl.MasterAttr]; !relation.IsNull(v) && !seen[v] {
			seen[v] = true
			names = append(names, v)
		}
	}
	var queries []string
	for _, t := range w.inst.Data.Tuples {
		if v := t.Values[cl.DataAttr]; !relation.IsNull(v) {
			queries = append(queries, v)
		}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("%s: no data values to query the index with", w.name)
	}

	var tree *suffixtree.Tree
	build := timeMedian(func() {
		tree = suffixtree.New()
		for _, v := range names {
			tree.Add(v)
		}
	})
	hits := make([][]suffixtree.Match, len(queries))
	topl := timeMedian(func() {
		for i, v := range queries {
			hits[i] = tree.TopL(v, w.opts.TopL, len(v)/(k+1))
		}
	})
	common := timeMedian(func() {
		for _, v := range queries {
			if minLen := len(v) / (k + 1); minLen >= 1 {
				sink += len(tree.StringsWithCommonSubstring(v, minLen))
			}
		}
	})
	candidates := 0
	verify := timeMedian(func() {
		candidates = 0
		for i, v := range queries {
			for _, h := range hits[i] {
				candidates++
				if similarity.Within(v, names[h.ID], k) {
					sink++
				}
			}
		}
	})
	us := func(d time.Duration) float64 { return scale * float64(d.Nanoseconds()) / 1e3 / float64(len(queries)) }
	return map[string]float64{
		"suffixtree.build_ms":             scale * ms(build),
		"suffixtree.topl_us":              us(topl),
		"suffixtree.common_us":            us(common),
		"suffixtree.candidates_per_query": ratio(candidates, len(queries)),
		"similarity.verify_us":            us(verify),
	}, nil
}

// editClause finds the clause match.go blocks through the suffix tree: the
// first edit-distance clause of an MD with no equality clause.
func editClause(rules []rule.Rule) (md.Clause, bool) {
	for _, r := range rules {
		if r.Kind != rule.MatchMD {
			continue
		}
		var edit *md.Clause
		exact := false
		for i, cl := range r.MD.LHS {
			exact = exact || cl.Pred.Exact
			if _, ok := cl.Pred.EditThreshold(); ok && !cl.Pred.Exact && edit == nil {
				edit = &r.MD.LHS[i]
			}
		}
		if edit != nil && !exact {
			return *edit, true
		}
	}
	return md.Clause{}, false
}

func timeMedian(fn func()) time.Duration {
	runs := make([]float64, indexReplays)
	for i := range runs {
		t0 := time.Now()
		fn()
		runs[i] = float64(time.Since(t0))
	}
	return time.Duration(quantile(runs, 0.5))
}
