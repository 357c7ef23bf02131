package relation

import (
	"fmt"
	"strings"
	"testing"
)

// TestSlabTuplesIsolated pins the slab contract on a relation that spans
// three ReadCSV chunks (boundaries at rows 256 and 512) and on its Clone:
// ids and values round-trip, the header survives record reuse, an append
// to one tuple's cells never spills into the next tuple's, and writes to
// the clone never reach the source.
func TestSlabTuplesIsolated(t *testing.T) {
	const rows = 600
	var vals, conf strings.Builder
	vals.WriteString("A,B,C\n")
	conf.WriteString("A,B,C\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&vals, "a%d,b%d,null\n", i, i)
		fmt.Fprintf(&conf, "0.%d,0.5,1\n", i%10)
	}
	src, err := ReadCSV("r", strings.NewReader(vals.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadConfCSV(src, strings.NewReader(conf.String())); err != nil {
		t.Fatal(err)
	}
	if got := src.Schema.String(); got != "r(A, B, C)" {
		t.Fatalf("schema = %s, want r(A, B, C)", got)
	}
	want := func(r *Relation, i int) {
		t.Helper()
		tp := r.Tuples[i]
		if tp.ID != i || tp.Values[0] != fmt.Sprintf("a%d", i) || tp.Values[1] != fmt.Sprintf("b%d", i) ||
			tp.Values[2] != Null || tp.Conf[0] != float64(i%10)/10 || tp.Marks[0] != FixNone {
			t.Fatalf("tuple %d = id %d %q %v %v", i, tp.ID, tp.Values, tp.Conf, tp.Marks)
		}
	}
	clone := src.Clone()
	for _, r := range []*Relation{src, clone} {
		if r.Len() != rows {
			t.Fatalf("Len = %d, want %d", r.Len(), rows)
		}
		for i := 0; i < rows; i++ {
			want(r, i)
		}
		for i := 0; i+1 < rows; i++ {
			tp := r.Tuples[i]
			v := append(tp.Values, "spill")
			v[0] = "spill"
			c := append(tp.Conf, 0.25)
			c[0] = 0.25
			m := append(tp.Marks, FixPossible)
			m[0] = FixPossible
			want(r, i)
			want(r, i+1)
		}
	}
	for i := 0; i < rows; i++ {
		clone.Tuples[i].Set(0, "changed", 0.75, FixReliable)
		want(src, i)
	}
}
