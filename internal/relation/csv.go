package relation

import (
	"encoding/csv"
	"fmt"
	"io"
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

// ReadCSV reads a relation from CSV. The first row is the header and defines
// the schema (with the given relation name). The literal value "null" is
// read as Null. All confidences are zero; use ReadConfCSV to attach them.
//
// The input is untrusted: a duplicated header column, a row of the wrong
// arity, or a CSV syntax error all come back as errors carrying the
// offending line, never as a panic (pinned by FuzzReadCSV).
//
// Rows are carved out of slabs of readChunk tuples, one slab allocated
// whenever the previous one fills; a slab stays alive while any of its
// tuples is reachable.
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	// The schema keeps header, so only the data rows reuse one record:
	// each row's fields are copied into its tuple before the next Read.
	cr.ReuseRecord = true
	schema, err := NewSchemaChecked(name, header...)
	if err != nil {
		return nil, fmt.Errorf("relation: CSV header line 1: %w", err)
	}
	r := New(schema)
	var s slab
	for row := 2; ; row++ { // row counts CSV records, header included
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading CSV row: %w", err) // csv.ParseError carries the line
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

// ReadConfCSV reads per-cell confidences (same shape as the relation, with a
// header row) into r. A confidence outside [0,1], NaN included, is an error
// naming its tuple and attribute: the same range the streaming engine's
// Upsert enforces.
func ReadConfCSV(r *Relation, rd io.Reader) error {
	cr := csv.NewReader(rd)
	cr.ReuseRecord = true
	if _, err := cr.Read(); err != nil {
		return fmt.Errorf("relation: reading confidence header: %w", err)
	}
	for _, t := range r.Tuples {
		rec, err := cr.Read()
		if err != nil {
			return fmt.Errorf("relation: reading confidence row for tuple %d: %w", t.ID, err)
		}
		if len(rec) != r.Schema.Arity() {
			return fmt.Errorf("relation: confidence row has %d fields, want %d", len(rec), r.Schema.Arity())
		}
		for i, s := range rec {
			c, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("relation: bad confidence %q for tuple %d: %w", s, t.ID, err)
			}
			if !(c >= 0 && c <= 1) { // also rejects NaN
				return fmt.Errorf("relation: confidence %q for tuple %d attribute %s outside [0,1]",
					s, t.ID, r.Schema.Attrs[i])
			}
			t.Conf[i] = c
		}
	}
	return nil
}
