package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refReadCSV is the plain encoding/csv loader ReadCSV must agree with: the
// first record is the header, whose attributes must be non-empty and
// distinct, every further record must have the header's arity, and "null"
// reads as Null.
func refReadCSV(text string) (header []string, rows [][]string, err error) {
	cr := csv.NewReader(strings.NewReader(text))
	cr.FieldsPerRecord = -1
	header, err = cr.Read()
	if err != nil {
		return nil, nil, err
	}
	seen := map[string]bool{}
	for _, a := range header {
		if a == "" || seen[a] {
			return nil, nil, fmt.Errorf("bad header attribute %q", a)
		}
		seen[a] = true
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return header, rows, nil
		}
		if err != nil {
			return nil, nil, err
		}
		if len(rec) != len(header) {
			return nil, nil, fmt.Errorf("ragged row %v", rec)
		}
		for i, v := range rec {
			if v == "null" {
				rec[i] = Null
			}
		}
		rows = append(rows, rec)
	}
}

// refReadConf is the plain encoding/csv loader ReadConfCSV must agree
// with: a header equal to attrs, then exactly n rows of arity len(attrs),
// each cell parsed by strconv.ParseFloat and inside [0,1].
func refReadConf(text string, attrs []string, n int) ([][]float64, error) {
	cr := csv.NewReader(strings.NewReader(text))
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, err
	}
	if !slices.Equal(header, attrs) {
		return nil, fmt.Errorf("header %v, want %v", header, attrs)
	}
	var rows [][]float64
	for range n {
		rec, err := cr.Read()
		if err != nil {
			return nil, err
		}
		if len(rec) != len(attrs) {
			return nil, fmt.Errorf("ragged row %v", rec)
		}
		row := make([]float64, len(rec))
		for i, s := range rec {
			c, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, err
			}
			if !(c >= 0 && c <= 1) {
				return nil, fmt.Errorf("confidence %v outside [0,1]", c)
			}
			row[i] = c
		}
		rows = append(rows, row)
	}
	if _, err := cr.Read(); err != io.EOF {
		return nil, fmt.Errorf("input after the last row (%v)", err)
	}
	return rows, nil
}

// sameParseError fails t unless got wraps a *csv.ParseError equal to the
// one want wraps, when want wraps one: ReadCSV's line numbers must count
// from the start of the input even where encoding/csv took over mid-file.
func sameParseError(t *testing.T, got, want error, text string) {
	t.Helper()
	var wpe, gpe *csv.ParseError
	if !errors.As(want, &wpe) {
		return
	}
	if !errors.As(got, &gpe) || *gpe != *wpe {
		t.Fatalf("error %v, want %v\ninput: %q", got, want, text)
	}
}

// FuzzReadCSV feeds arbitrary bytes to the CSV reader and checks three
// properties. First, no panic escapes: malformed headers (duplicate
// columns), ragged rows and CSV syntax errors must all surface as errors —
// the malformed-input hardening contract of ReadCSV. Second, ReadCSV agrees
// with refReadCSV, a plain encoding/csv loader: it accepts exactly the
// inputs the reference accepts, with the same schema, rows and cells, and
// rejects a CSV syntax error with the same *csv.ParseError. Third, any
// relation it accepts round-trips: WriteCSV renders it back to CSV and
// re-reading yields the same schema and cell values (null normalization is
// idempotent).
func FuzzReadCSV(f *testing.F) {
	f.Add("A,B\n1,2\n")
	f.Add("A,A\n1,2\n")          // duplicate header attribute
	f.Add("A,B\n1\n")            // wrong arity
	f.Add("A,B\n1,2,3\n")        // wrong arity, too many
	f.Add("A,B\nnull,x\n")       // null literal
	f.Add("A,B\n\"q,w\",x\n")    // quoted separator
	f.Add("A,B\n\"unclosed\n")   // CSV syntax error
	f.Add("\n")                  // empty header line
	f.Add("A,B\r\n1,2\r\n")      // CRLF endings
	f.Add("A;B\n")               // no separator match
	f.Add("A,B\n1,2\n3,null\n4") // missing trailing newline + arity
	f.Add("A,B\n\"x\ny\",z\n")   // quoted field holding a newline

	// 300 rows: the input crosses ReadCSV's 256-row slab chunk.
	var rows strings.Builder
	rows.WriteString("A,B\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&rows, "v%d,null\n", i)
	}
	f.Add(rows.String())
	// Where the quote-free scanner and the encoding/csv handoff meet: a
	// quoted row after quote-free rows, CRLF from mid-file on, a bare quote
	// on line 4, blank lines, a missing final newline, lines longer than
	// the scanner's read buffer.
	long := strings.Repeat("x", 5000)
	f.Add("A,B\n1,2\n3,4\n\"5,6\",7\n8,9\n")
	f.Add("A,B\n1,2\n3,4\r\n5,6\r\n")
	f.Add("A,B\n1,2\n3,4\n5,\"6\n7,8\n")
	f.Add("\n\nA,B\n\n1,2\n\n\n3,4\n\n")
	f.Add("A,B\n1.,.5\n00.25,1e-1\n0.1234567890123456,0")
	f.Add("A,B\n" + long + ",y\n1,2\n")
	f.Add("A,B\n" + long + ",\"y\"\n1,2\n")
	f.Add("A,B\n1,2\n\"" + long + "\n")

	f.Fuzz(func(t *testing.T, text string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadCSV panicked on %q: %v", text, r)
			}
		}()
		r, err := ReadCSV("fuzz", strings.NewReader(text))
		header, want, werr := refReadCSV(text)
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadCSV error %v, reference error %v\ninput: %q", err, werr, text)
		}
		if err != nil {
			sameParseError(t, err, werr, text)
			return
		}
		if !slices.Equal(r.Schema.Attrs, header) || r.Len() != len(want) {
			t.Fatalf("ReadCSV read %v with %d rows, reference %v with %d\ninput: %q",
				r.Schema.Attrs, r.Len(), header, len(want), text)
		}
		for i, tp := range r.Tuples {
			if !slices.Equal(tp.Values, want[i]) {
				t.Fatalf("row %d = %q, reference %q\ninput: %q", i, tp.Values, want[i], text)
			}
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of accepted input failed: %v\ninput: %q", err, text)
		}
		r2, err := ReadCSV("fuzz", &buf)
		if err != nil {
			t.Fatalf("re-read of written CSV failed: %v\ninput: %q", err, text)
		}
		// encoding/csv normalizes \r\n to \n inside quoted fields on every
		// read, so cells containing bare \r cannot round-trip byte-exactly
		// by design; for those only the error-freedom above is asserted.
		for _, a := range r.Schema.Attrs {
			if strings.ContainsRune(a, '\r') {
				return
			}
		}
		for _, tp := range r.Tuples {
			for _, v := range tp.Values {
				if strings.ContainsRune(v, '\r') {
					return
				}
			}
		}
		if got, want := r2.Schema.String(), r.Schema.String(); got != want {
			t.Fatalf("round-trip changed schema: %s, want %s\ninput: %q", got, want, text)
		}
		if r2.Len() != r.Len() {
			t.Fatalf("round-trip changed cardinality: %d, want %d\ninput: %q", r2.Len(), r.Len(), text)
		}
		for i, tp := range r.Tuples {
			for a, v := range tp.Values {
				if got := r2.Tuples[i].Values[a]; got != v {
					t.Fatalf("round-trip changed t%d[%d]: %q, want %q\ninput: %q", i, a, got, v, text)
				}
			}
		}
	})
}

// FuzzReadConfCSV reads arbitrary bytes as the confidences of an n-tuple
// relation over A,B and checks it against refReadConf, a plain
// encoding/csv loader using strconv.ParseFloat: ReadConfCSV accepts exactly
// the inputs the reference accepts, rejects a CSV syntax error with the same
// *csv.ParseError, and stores confidences bit-equal to ParseFloat's.
func FuzzReadConfCSV(f *testing.F) {
	f.Add("A,B\n0.9,0.3\n", uint8(1))
	f.Add("A,B\n1.,.5\n00.25,1e-1\n0.1234567890123456,0\n", uint8(3))
	f.Add("A,B\n0.9,0.3\n\"0.5\",1\n", uint8(2))
	f.Add("A,B\n0.9,0.3\r\n0.5,1\r\n", uint8(2))
	f.Add("A,B\n0.9,0.3\n0.5,0\"\n", uint8(2))
	f.Add("\nA,B\n\n0.9,0.3\n\n0.5,1", uint8(2))
	f.Add("A,B\n0.9,0.3\n0.5,1\n", uint8(1))
	f.Add("B,A\n0.9,0.3\n", uint8(1))
	f.Add("A,B\n0."+strings.Repeat("0", 5000)+"1,1\n", uint8(1))
	f.Add("A,B\n1.5,NaN\n", uint8(1))

	attrs := []string{"A", "B"}
	f.Fuzz(func(t *testing.T, text string, n uint8) {
		r := New(NewSchema("fuzz", attrs...))
		for range n % 4 {
			r.Append("x", "y")
		}
		err := ReadConfCSV(r, strings.NewReader(text))
		want, werr := refReadConf(text, attrs, r.Len())
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadConfCSV error %v, reference error %v\ninput: %q", err, werr, text)
		}
		if err != nil {
			sameParseError(t, err, werr, text)
			return
		}
		for i, tp := range r.Tuples {
			for a, c := range tp.Conf {
				if math.Float64bits(c) != math.Float64bits(want[i][a]) {
					t.Fatalf("t%d[%d] = %v, ParseFloat %v\ninput: %q", i, a, c, want[i][a], text)
				}
			}
		}
	})
}
