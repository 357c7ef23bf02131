package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clean"
	"repro/internal/gen"
	"repro/internal/relation"
)

// stream is a workload whose op is one update to a streaming engine. The
// update stream is replayed from a fresh engine whenever it runs out.
type stream struct {
	updates []gen.Update
	master  csvInput // for the traced pass's fresh decomposition
	eng     *clean.Engine
	// oracle is the engine's base replayed with Update.Apply: the input a
	// fresh run must clean to the engine's current state.
	oracle    *relation.Relation
	next      int // index of the next update
	unchecked int // updates applied since the last oracle check
}

func newStream(w *workload) (*stream, error) {
	s := &stream{updates: gen.GenerateUpdates(w.inst, gen.UpdateConfig{
		Updates:      w.updates,
		DeleteRate:   0.15,
		AppendRate:   0.25,
		HotGroupRate: 0.2,
		Seed:         w.inst.Config.Seed,
	})}
	var err error
	if s.master, err = encode(w.master); err != nil {
		return nil, err
	}
	// Quality and residual violations are those of the state after the
	// whole stream. Only base tuples no update touched have a ground truth.
	base := w.inst.Data.Clone()
	touched := make(map[int]bool)
	for _, u := range s.updates {
		u.Apply(base)
		touched[u.ID] = true
	}
	ref, err := clean.RunContext(context.Background(), base, w.master, w.inst.Rules, sequential())
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	w.quality = measureQuality(w.inst.Data, ref.Data, w.truth, func(i int) bool { return !touched[i] })
	w.residual = ref.Report.NumCFD() + ref.Report.NumMD()
	return s, s.reset(w)
}

func (s *stream) construct(w *workload) error {
	_, err := clean.NewStream(w.inst.Data, w.master, w.inst.Rules, w.opts)
	return err
}

// reset starts the update stream over on a fresh engine.
func (s *stream) reset(w *workload) (err error) {
	s.eng, err = clean.NewStream(w.inst.Data, w.master, w.inst.Rules, w.opts)
	s.oracle = w.inst.Data.Clone()
	s.next, s.unchecked = 0, 0
	return err
}

func apply(e *clean.Engine, u gen.Update) (*clean.Result, error) {
	if u.Delete {
		return e.Delete(u.ID)
	}
	return e.Upsert(u.ID, u.Values, u.Conf)
}

// check compares the engine's state with a fresh run on the oracle
// base; a mismatch fails every update since the last check.
func (s *stream) check(w *workload) {
	if s.unchecked == 0 {
		return
	}
	n := s.unchecked
	s.unchecked = 0
	want, err := clean.RunContext(context.Background(), s.oracle, w.master, w.inst.Rules, sequential())
	if err == nil && fingerprint(want) != fingerprint(s.eng.Result()) {
		err = errMismatch
	}
	if err != nil {
		w.fail(n, fmt.Errorf("stream check after update %d: %w", s.next, err))
	}
}

func (s *stream) round(w *workload) {
	for q := 0; q < w.quota; q++ {
		if s.next == len(s.updates) {
			s.check(w)
			if err := s.reset(w); err != nil {
				w.fail(w.quota-q, fmt.Errorf("stream restart: %w", err))
				return
			}
		}
		u := s.updates[s.next]
		smp, err := measure(func() error {
			_, err := apply(s.eng, u)
			return err
		})
		w.samples = append(w.samples, smp)
		s.next++
		if err != nil {
			// A failed update leaves the engine unchanged, so the oracle
			// skips it too.
			w.fail(1, fmt.Errorf("update %d: %w", s.next-1, err))
			continue
		}
		u.Apply(s.oracle)
		s.unchecked++
	}
	s.check(w)
}

// trace replays the first n updates on a fresh engine, one span each, and
// checks each against a fresh run decomposed into layer spans. The
// untraced baseline replays the same updates on a second engine.
func (s *stream) trace(w *workload, tr *tracer, n int) ([]map[string]float64, []time.Duration, error) {
	var err error
	tr.do("stream.new", -1, func() { err = s.reset(w) })
	if err != nil {
		return nil, nil, err
	}
	plain, err := clean.NewStream(w.inst.Data, w.master, w.inst.Rules, w.opts)
	if err != nil {
		return nil, nil, err
	}
	perOp := make([]map[string]float64, min(n, len(s.updates)))
	untraced := make([]time.Duration, len(perOp))
	for k := range perOp {
		u := s.updates[k]
		var want, res *clean.Result
		smp, err := measure(func() (err error) {
			want, err = apply(plain, u)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("untraced update %d: %w", k, err)
		}
		untraced[k] = smp.wall
		tr.do("stream.update", k, func() { res, err = apply(s.eng, u) })
		if err != nil {
			return nil, nil, fmt.Errorf("traced update %d: %w", k, err)
		}
		u.Apply(s.oracle)
		s.next++
		base, err := encode(s.oracle)
		if err != nil {
			return nil, nil, err
		}
		got, passes, err := decompose(tr, "oracle", k, base, s.master, w)
		if err != nil {
			return nil, nil, fmt.Errorf("traced update %d: fresh run: %w", k, err)
		}
		if fingerprint(got) != fingerprint(res) || fingerprint(want) != fingerprint(res) {
			w.fail(1, fmt.Errorf("traced update %d: %w", k, errMismatch))
		}
		// The counters are the update's own; the layer times come from the
		// fresh decomposition, which does the work an update reruns.
		perOp[k] = counters(res, passes)
	}
	return perOp, untraced, nil
}
