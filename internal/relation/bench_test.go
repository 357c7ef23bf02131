package relation_test

import (
	"bytes"
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

// BenchmarkClone deep-copies the default generated instance's data, the
// copy every engine makes of its input.
func BenchmarkClone(b *testing.B) {
	d := gen.Generate(gen.DefaultConfig()).Data
	b.ReportAllocs()
	for b.Loop() {
		d.Clone()
	}
}
