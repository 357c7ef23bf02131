package suffixtree

import (
	"slices"
	"testing"

	"repro/internal/gen"
)

// genNames returns the distinct master names and the data names of a
// default-shaped gen instance: the strings the engine indexes and queries
// for the md_name_sim rule.
func genNames(tuples, master int) (names, queries []string) {
	cfg := gen.DefaultConfig()
	cfg.Tuples, cfg.MasterSize = tuples, master
	inst := gen.Generate(cfg)
	name := inst.Master.Schema.MustIndex("name")
	seen := make(map[string]bool)
	for _, t := range inst.Master.Tuples {
		if v := t.Values[name]; !seen[v] {
			seen[v] = true
			names = append(names, v)
		}
	}
	name = inst.Data.Schema.MustIndex("name")
	for _, t := range inst.Data.Tuples {
		queries = append(queries, t.Values[name])
	}
	return names, queries
}

// engineTopL is clean.DefaultOptions().TopL, the l the engine blocks with.
const engineTopL = 32

// TestGenQueryShapeAgainstBruteForce pins the engine's real query shape:
// gen master names (seed 1, 1000 master rows) queried with the first 500
// data names at minLen = len(v)/3, the bound match.go derives from
// md_name_sim's edit distance 2. Expectations come from LCSubstring alone.
func TestGenQueryShapeAgainstBruteForce(t *testing.T) {
	names, queries := genNames(10000, 1000)
	tr := New(names...)
	for _, v := range queries[:500] {
		minLen := len(v) / 3
		rank, common := bruteForce(names, v, minLen)
		rank = rank[:min(engineTopL, len(rank))]
		if got := tr.TopL(v, engineTopL, minLen); !slices.Equal(got, rank) {
			t.Fatalf("TopL(%q, %d, %d) = %v, want %v", v, engineTopL, minLen, got, rank)
		}
		if minLen < 1 {
			continue
		}
		if got := tr.StringsWithCommonSubstring(v, minLen); !slices.Equal(got, common) {
			t.Fatalf("StringsWithCommonSubstring(%q, %d) = %v, want %v", v, minLen, got, common)
		}
	}
}

// TestGenEditCandidatesAgainstReference pins the count filter on the
// engine's shapes: gen master names queried with data names, typo'd ones
// included, at md_name_sim's K = 2 and at K = 1 and 3, must give exactly
// the lists the documented rule gives (editReference), on a default
// instance and on a master-heavy one.
func TestGenEditCandidatesAgainstReference(t *testing.T) {
	for _, shape := range [][2]int{{10000, 1000}, {4000, 4000}} {
		names, queries := genNames(shape[0], shape[1])
		tr := New(names...)
		for i, v := range queries[:300] {
			k := 1 + i%3
			got, ok := tr.AppendEditCandidates(nil, v, k)
			want, wantOK := editReference(tr, names, v, k)
			if ok != wantOK || !slices.Equal(got, want) {
				t.Fatalf("%v: AppendEditCandidates(%q, %d) = %v, %v; want %v, %v", shape, v, k, got, ok, want, wantOK)
			}
		}
	}
}

// The benchmarks run on master-heavy-shaped names: 4000 tuples over 4000
// master rows. Queries reuse one result buffer, as the engine's matcher
// does, and cycle through the data names; ns/op is per query.

func BenchmarkIndexBuild(b *testing.B) {
	names, _ := genNames(4000, 4000)
	b.ReportAllocs()
	for b.Loop() {
		New(names...)
	}
}

func BenchmarkIndexTopL(b *testing.B) {
	names, queries := genNames(4000, 4000)
	tr := New(names...)
	var buf []Match
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		v := queries[i%len(queries)]
		buf = tr.AppendTopL(buf[:0], v, engineTopL, len(v)/3)
		i++
	}
}

func BenchmarkIndexCommon(b *testing.B) {
	names, queries := genNames(4000, 4000)
	tr := New(names...)
	var buf []int32
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		v := queries[i%len(queries)]
		buf = tr.AppendCommon(buf[:0], v, len(v)/3)
		i++
	}
}

// BenchmarkEditCandidates compares certification's two candidate
// enumerations for md_name_sim (K = 2): every name sharing one |v|/3-byte
// piece with v, and the count filter, which falls back to the former for
// values too short to filter.
func BenchmarkEditCandidates(b *testing.B) {
	names, queries := genNames(4000, 4000)
	tr := New(names...)
	const k = 2
	b.Run("common", func(b *testing.B) {
		var buf []int32
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			v := queries[i%len(queries)]
			buf = tr.AppendCommon(buf[:0], v, len(v)/(k+1))
			i++
		}
	})
	b.Run("filter", func(b *testing.B) {
		var buf []int32
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			v := queries[i%len(queries)]
			var ok bool
			if buf, ok = tr.AppendEditCandidates(buf[:0], v, k); !ok {
				buf = tr.AppendCommon(buf[:0], v, len(v)/(k+1))
			}
			i++
		}
	})
}
