// Package fault is a seed-deterministic fault injector for the cleaning
// engine's robustness property suite. The engine's hot paths carry hook
// points (Injector.At) naming a site and the deterministic coordinates of
// the work being done — rule index, worklist position — and the injector
// decides, purely from (seed, site, kind, coordinates), whether to inject a
// panic, a scheduling delay, or a context cancellation at that point.
//
// Determinism is the whole design: the decision function is a pure hash of
// values that do not depend on goroutine scheduling, so the same seed and
// rates fire the same faults at the same logical points in every run — under
// any worker count, with or without -race — which is what lets the property
// suite compare a faulted run against the fault-free baseline byte for byte.
//
// A nil *Injector is inert: every hook site calls through a nil receiver in
// production, costing one predictable branch, so the hooks stay compiled in
// without measurable overhead (the bench gate pins this).
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one class of hook point in the engine.
type Site string

const (
	// SiteApply fires per applier work item: (rule index, worklist index).
	SiteApply Site = "apply"
	// SiteProbe fires per MD matcher probe: (rule index, tuple index).
	SiteProbe Site = "probe"
	// SiteSched fires once per task a fan-out worker goroutine claims:
	// (0, task index).
	SiteSched Site = "sched"
	// SiteSeed fires per eRepair seeding task: (task index, 0).
	SiteSeed Site = "seed"
	// SiteCertify fires per Checker certification task: (rule index, shard lo).
	SiteCertify Site = "certify"
)

// Kind is the effect an armed rule injects.
type Kind uint8

const (
	// Panic makes the hook panic with an *Injected value.
	Panic Kind = iota
	// Delay makes the hook sleep briefly, perturbing fan-out scheduling
	// without changing any decision.
	Delay
	// Cancel makes the hook invoke the cancel function registered with
	// OnCancel (typically the run context's CancelFunc), at most once.
	Cancel
	numKinds
)

// String names the kind for error messages and test output.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Cancel:
		return "cancel"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Rule arms one (site, kind) pair at the given rate in [0, 1]: the fraction
// of hook firings at that site that inject the effect. Rate 1 fires on every
// visit; small rates pick a deterministic pseudo-random subset.
type Rule struct {
	Site Site
	Kind Kind
	Rate float64
}

// Injected is the value carried by an injected panic, so containment code
// and tests can tell injected faults from genuine bugs.
type Injected struct {
	Site Site
	A, B int
}

// Error renders the injected fault; implementing error makes the value
// readable when it surfaces inside a WorkerError.
func (p *Injected) Error() string {
	return fmt.Sprintf("fault: injected panic at %s(%d,%d)", p.Site, p.A, p.B)
}

// Injector decides at every hook point whether to inject a fault. Safe for
// concurrent use: the decision path is pure, and the counters are atomic.
type Injector struct {
	seed  int64
	rules []Rule

	delayDur   time.Duration
	cancel     func()
	cancelOnce sync.Once

	fired [numKinds]atomic.Int64
}

// New builds an injector from a seed and the armed rules.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{seed: seed, rules: rules, delayDur: 100 * time.Microsecond}
}

// OnCancel registers the function Cancel faults invoke — typically the
// context.CancelFunc of the run under test. Only the first firing calls it.
func (in *Injector) OnCancel(fn func()) { in.cancel = fn }

// Fired returns how many faults of the kind have fired so far. Tests use it
// to assert a configuration actually exercised the path under test; it is
// not part of the deterministic contract (a canceled run stops early, so
// later hook points never fire).
func (in *Injector) Fired(k Kind) int64 { return in.fired[k].Load() }

// At is the hook point: deterministically decides from (seed, site, kind,
// a, b) whether each armed rule fires, and injects the effect. A nil
// injector is inert, so call sites need no guard.
func (in *Injector) At(site Site, a, b int) {
	if in == nil || len(in.rules) == 0 {
		return
	}
	for _, r := range in.rules {
		if r.Site != site || r.Rate <= 0 {
			continue
		}
		if !in.hit(site, r.Kind, a, b, r.Rate) {
			continue
		}
		in.fired[r.Kind].Add(1)
		switch r.Kind {
		case Delay:
			time.Sleep(in.delayDur)
		case Cancel:
			in.cancelOnce.Do(func() {
				if in.cancel != nil {
					in.cancel()
				}
			})
		case Panic:
			panic(&Injected{Site: site, A: a, B: b})
		}
	}
}

// hit maps (seed, site, kind, a, b) to a uniform draw in [0, 1) and compares
// it against rate. The mix is a 64-bit FNV-1a over the inputs followed by a
// splitmix64 finalizer — cheap, stateless, and well distributed enough that
// rates behave as fractions over the hook population.
func (in *Injector) hit(site Site, kind Kind, a, b int, rate float64) bool {
	if rate >= 1 {
		return true
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(in.seed))
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= prime64
	}
	mix(uint64(kind))
	mix(uint64(a))
	mix(uint64(b))
	// splitmix64 finalizer: FNV alone is weak in the high bits.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	u := float64(h>>11) / float64(1<<53)
	return u < rate
}
