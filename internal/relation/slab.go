package relation

// slab carves tuples out of four shared backing arrays, so a batch of n
// tuples of arity k costs four allocations instead of 4n. Each tuple's
// Values, Conf and Marks is a full slice expression (vals[:k:k]): an append
// on one tuple reallocates rather than writing into its neighbour's cells.
//
// The backing arrays stay alive while any tuple carved from them is
// reachable, so one surviving tuple pins its whole slab.
type slab struct {
	tuples []Tuple
	vals   []string
	conf   []float64
	marks  []FixMark
}

// newSlab returns a slab holding n tuples of arity k.
func newSlab(n, k int) slab {
	return slab{
		tuples: make([]Tuple, n),
		vals:   make([]string, n*k),
		conf:   make([]float64, n*k),
		marks:  make([]FixMark, n*k),
	}
}

// next hands out the slab's next tuple with the given id and arity k, its
// cells empty, zero-confidence and unmarked.
func (s *slab) next(id, k int) *Tuple {
	t := &s.tuples[0]
	s.tuples = s.tuples[1:]
	t.ID = id
	t.Values, s.vals = s.vals[:k:k], s.vals[k:]
	t.Conf, s.conf = s.conf[:k:k], s.conf[k:]
	t.Marks, s.marks = s.marks[:k:k], s.marks[k:]
	return t
}
