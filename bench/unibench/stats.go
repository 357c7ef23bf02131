package main

import (
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// sample is what one timed op cost.
type sample struct {
	wall  time.Duration // wall time
	cpu   time.Duration // process user+sys CPU time, all threads
	alloc uint64        // bytes allocated
	gcs   uint32        // GC cycles completed
	pause time.Duration // GC stop-the-world pause time
}

// measure runs fn as one timed op. The memory statistics are read outside
// the timed interval, because reading them stops the world.
func measure(fn func() error) (sample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return sample{
		wall:  wall,
		cpu:   c1 - c0,
		alloc: m1.TotalAlloc - m0.TotalAlloc,
		gcs:   m1.NumGC - m0.NumGC,
		pause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}, err
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// On a shared 2-vCPU VM every op, and its CPU time, ran up to 40% slower
// for minutes at a time with no steal time recorded: the cores themselves
// slowed down. A run is too short to average that out, so each run also
// times a fixed kernel that shares no code with the engine, and reports
// its times scaled to a host on which the kernel takes probeRef. An engine
// change moves the scaled times as it moves the raw ones; a host slowdown
// moves the kernel too and cancels.
const probeRef = 10 * time.Millisecond

// probe is that kernel: string-keyed map inserts and lookups and an int
// sort, the kinds of work the engine does, on fixed inputs.
type probe struct {
	keys      []string
	ints, buf []int
	m         map[string]int
	samples   []float64 // wall times, ns
}

func newProbe() *probe {
	p := &probe{m: make(map[string]int, probeKeys)}
	x := uint64(1)
	next := func() uint64 { // xorshift64: fixed inputs without a seeded RNG
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < probeKeys; i++ {
		p.keys = append(p.keys, "k"+strconv.FormatUint(next(), 36))
	}
	for i := 0; i < 4*probeKeys; i++ {
		p.ints = append(p.ints, int(next()>>1))
	}
	p.buf = make([]int, len(p.ints))
	return p
}

const probeKeys = 25000

// run times the kernel once.
func (p *probe) run() {
	t0 := time.Now()
	clear(p.m)
	for i, k := range p.keys {
		p.m[k] = i
	}
	for _, k := range p.keys {
		sink += p.m[k]
	}
	copy(p.buf, p.ints)
	sort.Ints(p.buf)
	sink += p.buf[0]
	p.samples = append(p.samples, float64(time.Since(t0)))
}

// median returns the kernel's median time in this run.
func (p *probe) median() time.Duration { return time.Duration(quantile(p.samples, 0.5)) }

// scale is the factor that turns a time measured in this run into one on
// the reference host.
func (p *probe) scale() float64 { return float64(probeRef) / quantile(p.samples, 0.5) }
