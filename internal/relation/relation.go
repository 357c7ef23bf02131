package relation

import "fmt"

// Relation is an instance of a schema: an ordered collection of tuples.
type Relation struct {
	Schema *Schema
	Tuples []*Tuple
}

// New creates an empty relation over the given schema.
func New(schema *Schema) *Relation {
	return &Relation{Schema: schema}
}

// Append adds a new tuple with the given values, assigning it the next ID.
// It panics if the number of values does not match the schema arity, since
// that is a programming error, not a data error.
func (r *Relation) Append(values ...string) *Tuple {
	if len(values) != r.Schema.Arity() {
		panic(fmt.Sprintf("relation: %d values for schema %s of arity %d", //det:ok panicfree invariant: ReadCSV validates row arity before Append; direct callers pass literal rows
			len(values), r.Schema.Name, r.Schema.Arity()))
	}
	t := NewTuple(len(r.Tuples), values)
	r.Tuples = append(r.Tuples, t)
	return t
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Clone returns a deep copy of the relation sharing the schema. The copies
// are carved out of one slab sized to the relation, so the clone costs six
// allocations however many tuples it holds. The slab stays alive while any
// of its tuples is reachable: a clone whose tuples are replaced one at a
// time, as a streaming engine's base is, keeps at most one clone's worth of
// dead tuples.
func (r *Relation) Clone() *Relation {
	k := r.Schema.Arity()
	out := &Relation{Schema: r.Schema, Tuples: make([]*Tuple, len(r.Tuples))}
	s := newSlab(len(r.Tuples), k)
	for i, t := range r.Tuples {
		c := s.next(t.ID, k)
		copy(c.Values, t.Values)
		copy(c.Conf, t.Conf)
		copy(c.Marks, t.Marks)
		out.Tuples[i] = c
	}
	return out
}

// CloneSharingValues returns a copy of the relation whose tuples share r's
// Values slices and own fresh Conf and Marks, carved out of flat arrays: a
// copy for a writer that replaces a tuple's Values with its own copy before
// writing one. Writing a shared Values slice writes r.
func (r *Relation) CloneSharingValues() *Relation {
	n, k := len(r.Tuples), r.Schema.Arity()
	out := &Relation{Schema: r.Schema, Tuples: make([]*Tuple, n)}
	tuples, conf, marks := make([]Tuple, n), make([]float64, n*k), make([]FixMark, n*k)
	for i, t := range r.Tuples {
		c := &tuples[i]
		c.ID, c.Values = t.ID, t.Values
		c.Conf, conf = conf[:k:k], conf[k:]
		c.Marks, marks = marks[:k:k], marks[k:]
		copy(c.Conf, t.Conf)
		copy(c.Marks, t.Marks)
		out.Tuples[i] = c
	}
	return out
}

// SetAllConf assigns confidence cf to every cell of the relation.
func (r *Relation) SetAllConf(cf float64) {
	for _, t := range r.Tuples {
		for i := range t.Conf {
			t.Conf[i] = cf
		}
	}
}

// MarkCounts returns, indexed by FixMark, the number of cells carrying each
// fix mark — the tri-level accounting of how much of the relation each
// cleaning phase wrote. Summing the counts gives the total cell count.
func (r *Relation) MarkCounts() [4]int {
	var out [4]int
	for _, t := range r.Tuples {
		for _, m := range t.Marks {
			out[m]++
		}
	}
	return out
}

// DiffCells counts cells on which r and other disagree. Both relations must
// have the same schema and cardinality; tuples are compared by position.
func (r *Relation) DiffCells(other *Relation) int {
	if r.Schema.Arity() != other.Schema.Arity() || r.Len() != other.Len() {
		panic("relation: DiffCells on incompatible relations") //det:ok panicfree invariant: callers diff a relation against its own clone
	}
	n := 0
	for i, t := range r.Tuples {
		u := other.Tuples[i]
		for a := range t.Values {
			if t.Values[a] != u.Values[a] {
				n++
			}
		}
	}
	return n
}
