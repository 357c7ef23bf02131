package relation

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the CSV reader and checks two
// properties. First, no panic escapes: malformed headers (duplicate
// columns), ragged rows and CSV syntax errors must all surface as errors —
// the malformed-input hardening contract of ReadCSV. Second, any relation it
// accepts round-trips: WriteCSV renders it back to CSV and re-reading yields
// the same schema and cell values (null normalization is idempotent).
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

	f.Fuzz(func(t *testing.T, text string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadCSV panicked on %q: %v", text, r)
			}
		}()
		r, err := ReadCSV("fuzz", strings.NewReader(text))
		if err != nil {
			return // rejected input: only the no-panic property applies
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
