package relation_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/relation"
)

// BenchmarkReadCSV loads the default generated instance's data and
// confidence CSV, the load every CLI run and unibench op pays.
func BenchmarkReadCSV(b *testing.B) {
	d := gen.Generate(gen.DefaultConfig()).Data
	var vals, conf bytes.Buffer
	if err := d.WriteCSV(&vals); err != nil {
		b.Fatal(err)
	}
	if err := d.WriteConfCSV(&conf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		r, err := relation.ReadCSV("hosp", bytes.NewReader(vals.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if err := relation.ReadConfCSV(r, bytes.NewReader(conf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadCSVQuoted loads the same instance as BenchmarkReadCSV with
// every data and confidence cell quoted, so everything after the header
// goes through encoding/csv: the handoff path's cost against a reader that
// always parses with encoding/csv.
func BenchmarkReadCSVQuoted(b *testing.B) {
	d := gen.Generate(gen.DefaultConfig()).Data
	var vals, conf bytes.Buffer
	quoted := func(buf *bytes.Buffer, cell func(t *relation.Tuple, i int) string) {
		buf.WriteString(strings.Join(d.Schema.Attrs, ",") + "\n")
		for _, t := range d.Tuples {
			for i := range t.Values {
				if i > 0 {
					buf.WriteByte(',')
				}
				buf.WriteString(`"` + strings.ReplaceAll(cell(t, i), `"`, `""`) + `"`)
			}
			buf.WriteByte('\n')
		}
	}
	quoted(&vals, func(t *relation.Tuple, i int) string {
		if relation.IsNull(t.Values[i]) {
			return "null"
		}
		return t.Values[i]
	})
	quoted(&conf, func(t *relation.Tuple, i int) string { return strconv.FormatFloat(t.Conf[i], 'g', -1, 64) })
	b.ReportAllocs()
	for b.Loop() {
		r, err := relation.ReadCSV("hosp", bytes.NewReader(vals.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if err := relation.ReadConfCSV(r, bytes.NewReader(conf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClone deep-copies the default generated instance's data, the
// copy every engine makes of its input.
func BenchmarkClone(b *testing.B) {
	d := gen.Generate(gen.DefaultConfig()).Data
	b.ReportAllocs()
	for b.Loop() {
		d.Clone()
	}
}
