package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestSchemaIndex(t *testing.T) {
	s := NewSchema("tran", "FN", "LN", "city")
	if got := s.Arity(); got != 3 {
		t.Fatalf("Arity = %d, want 3", got)
	}
	if got := s.Index("LN"); got != 1 {
		t.Errorf("Index(LN) = %d, want 1", got)
	}
	if got := s.Index("missing"); got != -1 {
		t.Errorf("Index(missing) = %d, want -1", got)
	}
	if got := s.MustIndex("city"); got != 2 {
		t.Errorf("MustIndex(city) = %d, want 2", got)
	}
	if got := s.String(); got != "tran(FN, LN, city)" {
		t.Errorf("String = %q", got)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSchema with duplicate attrs did not panic")
		}
	}()
	NewSchema("r", "A", "A")
}

func TestMustIndexUnknownPanics(t *testing.T) {
	s := NewSchema("r", "A")
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex on unknown attr did not panic")
		}
	}()
	s.MustIndex("B")
}

func TestMustIndexAll(t *testing.T) {
	s := NewSchema("r", "A", "B", "C")
	if got := s.MustIndexAll("C", "A"); !reflect.DeepEqual(got, []int{2, 0}) {
		t.Errorf("MustIndexAll = %v", got)
	}
}

func TestAppendAndIDs(t *testing.T) {
	r := New(NewSchema("r", "A", "B"))
	t0 := r.Append("x", "y")
	t1 := r.Append("z", "w")
	if t0.ID != 0 || t1.ID != 1 {
		t.Errorf("IDs = %d,%d, want 0,1", t0.ID, t1.ID)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestAppendWrongArityPanics(t *testing.T) {
	r := New(NewSchema("r", "A", "B"))
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong arity did not panic")
		}
	}()
	r.Append("only one")
}

func TestTupleCloneIndependent(t *testing.T) {
	r := New(NewSchema("r", "A", "B"))
	tup := r.Append("x", "y")
	tup.Conf[0] = 0.5
	c := tup.Clone()
	c.Values[0] = "changed"
	c.Conf[0] = 0.9
	c.Marks[1] = FixReliable
	if tup.Values[0] != "x" || tup.Conf[0] != 0.5 || tup.Marks[1] != FixNone {
		t.Errorf("Clone mutated original: %v %v %v", tup.Values, tup.Conf, tup.Marks)
	}
}

func TestRelationCloneIndependent(t *testing.T) {
	r := New(NewSchema("r", "A"))
	r.Append("x")
	c := r.Clone()
	c.Tuples[0].Values[0] = "y"
	if r.Tuples[0].Values[0] != "x" {
		t.Error("Relation.Clone shares tuple storage")
	}
}

// TestCloneSharingValues pins the sharing clone's contract: ids, values,
// confidences and marks round-trip, Values slices are r's own, and
// writes or appends to a copy's Conf and Marks reach neither r nor the
// copy's next tuple.
func TestCloneSharingValues(t *testing.T) {
	r := New(NewSchema("r", "A", "B"))
	r.Append("x", "y").Conf[1] = 0.5
	r.Append("z", "w").Marks[0] = FixReliable
	c := r.CloneSharingValues()
	for i, tp := range c.Tuples {
		src := r.Tuples[i]
		if tp.ID != src.ID || &tp.Values[0] != &src.Values[0] || tp.Conf[1] != src.Conf[1] || tp.Marks[0] != src.Marks[0] {
			t.Fatalf("tuple %d = %+v, want the values of %+v shared", i, tp, src)
		}
	}
	c.Tuples[0].Conf[1] = 0.9
	c.Tuples[0].Marks[0] = FixPossible
	_ = append(c.Tuples[0].Conf, 1)
	_ = append(c.Tuples[0].Marks, FixPossible)
	if r.Tuples[0].Conf[1] != 0.5 || r.Tuples[0].Marks[0] != FixNone {
		t.Errorf("writes to the copy reached r: %v %v", r.Tuples[0].Conf, r.Tuples[0].Marks)
	}
	if c.Tuples[1].Conf[0] != 0 || c.Tuples[1].Marks[0] != FixReliable {
		t.Errorf("an append to t0's cells spilled into t1: %v %v", c.Tuples[1].Conf, c.Tuples[1].Marks)
	}
}

func TestKeyDeterministic(t *testing.T) {
	r := New(NewSchema("r", "A", "B", "C"))
	tup := r.Append("1", "2", "3")
	k1 := tup.Key([]int{0, 1})
	k2 := tup.Key([]int{0, 1})
	if k1 != k2 {
		t.Error("Key not deterministic")
	}
}

func TestKeyCollisionResistance(t *testing.T) {
	// ("a\x1f", "b") must not collide with ("a", "\x1fb").
	r := New(NewSchema("r", "A", "B"))
	t1 := r.Append("a\x1f", "b")
	t2 := r.Append("a", "\x1fb")
	if t1.Key([]int{0, 1}) == t2.Key([]int{0, 1}) {
		t.Error("Key collides on separator-containing values")
	}
}

func TestDiffCells(t *testing.T) {
	r := New(NewSchema("r", "A", "B"))
	r.Append("x", "y")
	r.Append("z", "w")
	c := r.Clone()
	c.Tuples[0].Values[1] = "Y"
	c.Tuples[1].Values[0] = "Z"
	if got := r.DiffCells(c); got != 2 {
		t.Errorf("DiffCells = %d, want 2", got)
	}
}

func TestSetAllConf(t *testing.T) {
	r := New(NewSchema("r", "A", "B"))
	r.Append("x", "y")
	r.SetAllConf(0.7)
	if r.Tuples[0].Conf[1] != 0.7 {
		t.Errorf("Conf = %v", r.Tuples[0].Conf)
	}
}

func TestTupleSet(t *testing.T) {
	r := New(NewSchema("r", "A"))
	tup := r.Append("x")
	tup.Set(0, "y", 0.8, FixDeterministic)
	if tup.Values[0] != "y" || tup.Conf[0] != 0.8 || tup.Marks[0] != FixDeterministic {
		t.Errorf("Set: %v %v %v", tup.Values, tup.Conf, tup.Marks)
	}
}

func TestFixMarkString(t *testing.T) {
	cases := map[FixMark]string{
		FixNone: "none", FixDeterministic: "deterministic",
		FixReliable: "reliable", FixPossible: "possible", FixMark(9): "FixMark(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := New(NewSchema("tran", "A", "B"))
	r.Append("hello, world", "x\"quoted\"")
	r.Append(Null, "plain")
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("tran", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip Len = %d", back.Len())
	}
	if !reflect.DeepEqual(back.Tuples[0].Values, r.Tuples[0].Values) {
		t.Errorf("row0 = %v, want %v", back.Tuples[0].Values, r.Tuples[0].Values)
	}
	if !IsNull(back.Tuples[1].Values[0]) {
		t.Errorf("null not round-tripped: %q", back.Tuples[1].Values[0])
	}
}

func TestConfCSVRoundTrip(t *testing.T) {
	r := New(NewSchema("r", "A", "B"))
	tu := r.Append("x", "y")
	tu.Conf[0], tu.Conf[1] = 0.25, 1
	var buf bytes.Buffer
	if err := r.WriteConfCSV(&buf); err != nil {
		t.Fatal(err)
	}
	c := r.Clone()
	c.SetAllConf(0)
	if err := ReadConfCSV(c, &buf); err != nil {
		t.Fatal(err)
	}
	if c.Tuples[0].Conf[0] != 0.25 || c.Tuples[0].Conf[1] != 1 {
		t.Errorf("Conf = %v", c.Tuples[0].Conf)
	}
}

// TestReadConfCSVRejectsOutOfRange: a confidence outside [0,1] — NaN and
// the infinities included — is an error naming the tuple and attribute,
// never a silently stored value.
func TestReadConfCSVRejectsOutOfRange(t *testing.T) {
	for _, bad := range []string{"NaN", "Inf", "-Inf", "-0.1", "1.5"} {
		r := New(NewSchema("r", "A", "B"))
		r.Append("x", "y")
		r.Append("u", "v")
		err := ReadConfCSV(r, strings.NewReader("A,B\n0.5,1\n0,"+bad+"\n"))
		if err == nil {
			t.Errorf("confidence %s: want error", bad)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "tuple 1") || !strings.Contains(msg, "attribute B") {
			t.Errorf("confidence %s: error %q does not name tuple 1 attribute B", bad, msg)
		}
	}
	for _, ok := range []string{"0", "1", "0.75"} {
		r := New(NewSchema("r", "A"))
		r.Append("x")
		if err := ReadConfCSV(r, strings.NewReader("A\n"+ok+"\n")); err != nil {
			t.Errorf("confidence %s: %v", ok, err)
		}
	}
}

// TestReadCSVErrors: malformed input comes back as an error naming what is
// wrong and where. A syntax error met after quote-free lines wraps
// encoding/csv's *csv.ParseError with its line counted from the start of
// the input, not from where encoding/csv took over.
func TestReadCSVErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     string // substring of the error text
		parse    error  // the wrapped *csv.ParseError's Err, if any
		line     int    // and its Line
	}{
		{name: "empty", in: "", want: "reading CSV header: EOF"},
		{name: "duplicate header", in: "A,B,A\n1,2,3\n", want: `duplicate attribute "A"`},
		{name: "duplicate header after blank lines", in: "\n\n\nA,A\n1,2\n", want: "CSV header line 4"},
		{name: "quoted duplicate header after a blank line", in: "\n\"A\",A\n1,2\n", want: "CSV header line 2"},
		{name: "ragged row", in: "A,B\n1,2\n\n3\n4,5\n", want: "row 3 has 1 fields, header has 2"},
		{name: "unterminated quote", in: "A,B\n1,2\n\"3,4\n", parse: csv.ErrQuote, line: 3},
		{name: "bare quote on line 7", in: "A,B\n1,2\n3,4\n\n5,6\n7,8\n9,1\"0\n", parse: csv.ErrBareQuote, line: 7},
		{name: "bare quote after a quoted line", in: "A,B\n\"1\",2\n3,4\n5,6\"\n", parse: csv.ErrBareQuote, line: 4},
	} {
		_, err := ReadCSV("r", strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
		if tc.parse == nil {
			continue
		}
		var pe *csv.ParseError
		if !errors.As(err, &pe) || !errors.Is(pe.Err, tc.parse) || pe.Line != tc.line {
			t.Errorf("%s: error %v, want a *csv.ParseError %v on line %d", tc.name, err, tc.parse, tc.line)
		}
	}
}

// TestReadConfCSVHeaderMustMatchSchema: confidences are read by column
// name, so a header that differs from the schema, order included, is an
// error naming the first column that differs, not a silent transposition.
func TestReadConfCSVHeaderMustMatchSchema(t *testing.T) {
	for _, tc := range []struct{ header, want string }{
		{"B,A", `column 1 is "B", want "A"`},
		{"A", `lacks column 2 "B"`},
		{"A,B,C", `column 3 "C" is not in the schema`},
		{"A,b", `column 2 is "b", want "B"`},
	} {
		r := New(NewSchema("r", "A", "B"))
		r.Append("x", "y")
		err := ReadConfCSV(r, strings.NewReader(tc.header+"\n0.1,0.9\n"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("header %s: error %v, want one containing %q", tc.header, err, tc.want)
		}
	}
}

// TestReadConfCSVRowCount: one confidence row per tuple. A row after the
// last tuple is an error, as is a missing row; empty lines are no rows.
func TestReadConfCSVRowCount(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"A,B\n0.1,0.9\n0.5,0.5\n0.2,0.2\n", "more rows than the 1 tuples"},
		{"A,B\n0.1,0.9\n\"0.5\",0.5\n", "more rows than the 1 tuples"},
		{"A,B\n0.1,0.9\n\"0.5\n", "after the last tuple"},
		{"A,B\n\n", "row for tuple 0: EOF"},
		{"A,B\n0.1,0.9\n\n\n", ""},
		{"A,B\n0.1,0.9", ""},
	} {
		r := New(NewSchema("r", "A", "B"))
		r.Append("x", "y")
		err := ReadConfCSV(r, strings.NewReader(tc.in))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: %v", tc.in, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one containing %q", tc.in, err, tc.want)
		}
	}
}

// TestParseConfMatchesParseFloat: the digits-only fast path returns
// ParseFloat's float64 bit for bit, on every decimal of up to 15 digits it
// takes and on the longer ones it hands back.
func TestParseConfMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	cases := []string{"0", "1", "0.9", "1.", ".5", "00.25", "0.1234567890123456", "999999999999999", "0.000000000000001", "1e-1", "", ".", "0x1p-2", "+0.5", "-0", "Inf", "1_0"}
	for range 20000 {
		digits := make([]byte, 1+rng.IntN(17))
		for i := range digits {
			digits[i] = byte('0' + rng.IntN(10))
		}
		s := string(digits)
		if at := rng.IntN(len(digits) + 2); at <= len(digits) {
			s = s[:at] + "." + s[at:]
		}
		cases = append(cases, s)
	}
	for _, s := range cases {
		want, werr := strconv.ParseFloat(s, 64)
		got, gerr := parseConf(s)
		gotb, _ := parseConf([]byte(s))
		if (gerr != nil) != (werr != nil) || math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotb) != math.Float64bits(want) {
			t.Fatalf("parseConf(%q) = %v (%v), bytes %v; ParseFloat = %v (%v)", s, got, gerr, gotb, want, werr)
		}
	}
}

func TestKeyInjectiveProperty(t *testing.T) {
	// Property: distinct value slices yield distinct keys (escaping works).
	f := func(a1, a2, b1, b2 string) bool {
		r := New(NewSchema("r", "A", "B"))
		t1 := r.Append(a1, a2)
		t2 := r.Append(b1, b2)
		same := a1 == b1 && a2 == b2
		return (t1.Key([]int{0, 1}) == t2.Key([]int{0, 1})) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarkCounts(t *testing.T) {
	r := New(NewSchema("r", "A", "B", "C"))
	r.Append("1", "2", "3")
	r.Append("4", "5", "6")
	if got := r.MarkCounts(); got != [4]int{6, 0, 0, 0} {
		t.Errorf("fresh MarkCounts = %v, want all none", got)
	}
	r.Tuples[0].Set(0, "x", 0.9, FixDeterministic)
	r.Tuples[0].Set(1, "y", 0.7, FixReliable)
	r.Tuples[1].Set(2, "z", 0.5, FixPossible)
	r.Tuples[1].Set(0, "w", 0.5, FixPossible)
	got := r.MarkCounts()
	want := [4]int{2, 1, 1, 2}
	if got != want {
		t.Errorf("MarkCounts = %v, want %v", got, want)
	}
	n := 0
	for _, c := range got {
		n += c
	}
	if n != r.Len()*r.Schema.Arity() {
		t.Errorf("MarkCounts sums to %d, want %d cells", n, r.Len()*r.Schema.Arity())
	}
}
