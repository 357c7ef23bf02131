package relation

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// WriteCSV writes the relation as CSV with a header row of attribute names.
// Null values are written as the literal string "null".
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Attrs); err != nil {
		return err
	}
	row := make([]string, r.Schema.Arity())
	for _, t := range r.Tuples {
		for i, v := range t.Values {
			if IsNull(v) {
				v = "null"
			}
			row[i] = v
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteConfCSV writes the per-cell confidences of the relation as CSV with
// the same header and shape as WriteCSV.
func (r *Relation) WriteConfCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Attrs); err != nil {
		return err
	}
	row := make([]string, r.Schema.Arity())
	for _, t := range r.Tuples {
		for i, c := range t.Conf {
			row[i] = strconv.FormatFloat(c, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a relation from CSV. The first record is the header and
// defines the schema (with the given relation name). The literal value
// "null" is read as Null. All confidences are zero; use ReadConfCSV to
// attach them.
//
// Lines are scanned by csvLines: a line holding neither '"' nor '\r' is
// converted to one string and split at its commas, its fields substrings of
// that string. From the first line holding either, that line and the rest
// of the input go to encoding/csv, so quoting and CRLF endings read exactly
// as encoding/csv reads them. Empty lines are skipped on both paths.
//
// The input is untrusted: a duplicated header column, a row of the wrong
// arity, or a CSV syntax error all come back as errors carrying the
// offending row or line, never as a panic (pinned by FuzzReadCSV, which
// also checks every input against a plain encoding/csv loader).
//
// Rows are carved out of slabs of readChunk tuples, one slab allocated
// whenever the previous one fills; a slab stays alive while any of its
// tuples is reachable.
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	in := newCSVLines(rd)
	header, err := in.header()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	schema, err := NewSchemaChecked(name, header...)
	if err != nil {
		return nil, fmt.Errorf("relation: CSV header line %d: %w", in.line(), err)
	}
	r := New(schema)
	var s slab
	var fields []string
	for row := 2; ; row++ { // row counts CSV records, header included
		line, rec, err := in.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV row: %w", err) // csv.ParseError carries the line
		}
		if rec == nil {
			fields = splitFields(fields[:0], string(line))
			rec = fields
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relation: row %d has %d fields, header has %d", row, len(rec), len(header))
		}
		if len(s.tuples) == 0 { // slab used up
			s = newSlab(readChunk, len(header))
		}
		t := s.next(len(r.Tuples), len(header))
		for i, v := range rec {
			if v == "null" {
				v = Null
			}
			t.Values[i] = v
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r, nil
}

// readChunk is the number of rows ReadCSV carves out of one slab. A fixed
// chunk wastes at most one partly filled slab; growing one flat array by
// append and carving it at the end would leave every outgrown copy behind
// as garbage.
const readChunk = 256

// ReadConfCSV reads per-cell confidences into r from CSV of r's own shape:
// a header equal to r.Schema.Attrs in order, then one row per tuple, in
// tuple order. A header that differs (the error names the first column
// that does), a missing row or a row after the last tuple is an error.
// Lines are scanned as in ReadCSV; a quote-free row is parsed straight from
// its bytes. A confidence outside [0,1], NaN included, is an error naming
// its tuple and attribute: the same range the streaming engine's Upsert
// enforces.
func ReadConfCSV(r *Relation, rd io.Reader) error {
	in := newCSVLines(rd)
	header, err := in.header()
	if err != nil {
		return fmt.Errorf("relation: reading confidence header: %w", err)
	}
	if err := checkConfHeader(r.Schema.Attrs, header); err != nil {
		return err
	}
	var fields [][]byte
	for _, t := range r.Tuples {
		line, rec, err := in.next()
		if err != nil {
			return fmt.Errorf("relation: reading confidence row for tuple %d: %w", t.ID, err)
		}
		if rec != nil {
			err = setConf(t, r.Schema.Attrs, rec)
		} else {
			fields = splitFields(fields[:0], line)
			err = setConf(t, r.Schema.Attrs, fields)
		}
		if err != nil {
			return err
		}
	}
	switch _, _, err := in.next(); {
	case err == nil:
		return fmt.Errorf("relation: confidence CSV has more rows than the %d tuples", r.Len())
	case err != io.EOF:
		return fmt.Errorf("relation: reading confidence CSV after the last tuple: %w", err)
	}
	return nil
}

// checkConfHeader reports the first column where a confidence header
// departs from the schema's attributes.
func checkConfHeader(attrs, header []string) error {
	for i, a := range attrs {
		if i == len(header) {
			return fmt.Errorf("relation: confidence header lacks column %d %q", i+1, a)
		}
		if header[i] != a {
			return fmt.Errorf("relation: confidence header column %d is %q, want %q", i+1, header[i], a)
		}
	}
	if len(header) > len(attrs) {
		return fmt.Errorf("relation: confidence header column %d %q is not in the schema", len(attrs)+1, header[len(attrs)])
	}
	return nil
}

// setConf stores one confidence row rec as t's confidences.
func setConf[T string | []byte](t *Tuple, attrs []string, rec []T) error {
	if len(rec) != len(attrs) {
		return fmt.Errorf("relation: confidence row for tuple %d has %d fields, want %d", t.ID, len(rec), len(attrs))
	}
	for i, s := range rec {
		c, err := parseConf(s)
		if err != nil {
			return fmt.Errorf("relation: bad confidence %q for tuple %d: %w", s, t.ID, err)
		}
		if !(c >= 0 && c <= 1) { // also rejects NaN
			return fmt.Errorf("relation: confidence %q for tuple %d attribute %s outside [0,1]",
				s, t.ID, attrs[i])
		}
		t.Conf[i] = c
	}
	return nil
}

// pow10 holds the powers of ten parseConf divides by, each exact in a
// float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseConf returns what strconv.ParseFloat(string(s), 64) returns. A field
// of 1 to 15 decimal digits with at most one '.' is m / 10^f, for m its
// digits read as an integer and f the digits after the point: both are
// exact float64s (below 2^53), so the one rounded division gives the
// correctly rounded value, bit for bit ParseFloat's (its own exact path).
// Any other field goes to ParseFloat.
func parseConf[T string | []byte](s T) (float64, error) {
	var m uint64
	digits, frac, dot := 0, 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			m = m*10 + uint64(c-'0')
			digits++
			if dot {
				frac++
			}
		case c == '.' && !dot:
			dot = true
		default:
			return strconv.ParseFloat(string(s), 64)
		}
	}
	if digits == 0 || digits >= len(pow10) {
		return strconv.ParseFloat(string(s), 64)
	}
	return float64(m) / pow10[frac], nil
}

// splitFields appends the comma-separated fields of a quote-free line to
// dst.
func splitFields[T string | []byte](dst []T, line T) []T {
	start := 0
	for i := 0; i < len(line); i++ {
		if line[i] == ',' {
			dst = append(dst, line[start:i])
			start = i + 1
		}
	}
	return append(dst, line[start:])
}

// csvLines reads CSV a line at a time from one bufio.Reader. It hands back
// a non-empty line holding neither '"' nor '\r' as raw bytes, for the
// caller to split at its commas. At the first line holding either, it
// hands that line and the rest of the input to encoding/csv and returns its
// records from then on.
type csvLines struct {
	br   *bufio.Reader
	long []byte      // a line longer than br's buffer, joined from its pieces
	cr   *csv.Reader // set at the first line that needs encoding/csv
	read int         // lines read before cr took over, empty lines included
}

func newCSVLines(rd io.Reader) *csvLines {
	return &csvLines{br: bufio.NewReader(rd)}
}

// header returns the next record as a slice the caller may keep.
func (l *csvLines) header() ([]string, error) {
	line, rec, err := l.next()
	switch {
	case err != nil:
		return nil, err
	case rec != nil:
		return slices.Clone(rec), nil // the next call reuses rec
	}
	return splitFields(nil, string(line)), nil
}

// line returns the input line the last record started on, counting from 1
// and counting the empty lines skipped before it.
func (l *csvLines) line() int {
	if l.cr == nil {
		return l.read
	}
	n, _ := l.cr.FieldPos(0)
	return l.read + n
}

// next returns the next record, skipping empty lines: either a quote-free
// line without its '\n' (rec nil), valid until the next call, or a record
// parsed by encoding/csv (line nil), reused by the next call. It returns
// io.EOF at the end of input. A *csv.ParseError's line numbers count from
// the start of the input, not from the handoff.
func (l *csvLines) next() (line []byte, rec []string, err error) {
	for l.cr == nil {
		b, err := l.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			l.long = append(l.long[:0], b...)
			for err == bufio.ErrBufferFull {
				b, err = l.br.ReadSlice('\n')
				l.long = append(l.long, b...)
			}
			b = l.long
		}
		if err != nil && (err != io.EOF || len(b) == 0) {
			return nil, nil, err
		}
		if bytes.IndexByte(b, '"') >= 0 || bytes.IndexByte(b, '\r') >= 0 {
			// io.MultiReader reads br only once b is used up, so
			// encoding/csv has copied b before br refills the buffer b
			// may point into.
			l.cr = csv.NewReader(io.MultiReader(bytes.NewReader(b), l.br))
			l.cr.FieldsPerRecord = -1 // callers check arity and name the row
			l.cr.ReuseRecord = true
			break
		}
		l.read++
		if b[len(b)-1] == '\n' {
			b = b[:len(b)-1]
		}
		if len(b) > 0 {
			return b, nil, nil
		}
	}
	rec, err = l.cr.Read()
	if err != nil {
		var pe *csv.ParseError // escapes through errors.As: only on the error path
		if errors.As(err, &pe) {
			pe.StartLine += l.read
			pe.Line += l.read
		}
	}
	return nil, rec, err
}
