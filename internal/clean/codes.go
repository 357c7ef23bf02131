package clean

import (
	"maps"
	"slices"

	"repro/internal/relation"
	"repro/internal/rule"
)

// cellCodes dictionary-codes the columns the variable CFDs read, as LHS or
// RHS, indexed by attribute (nil for the others). Each distinct value of a
// coded column maps to a dense int32 code once, so the group index,
// eRepair's entropy and the group appliers count and compare ints instead
// of hashing strings, and turn a code back into its string only where a
// value is written or ordered. Codes never retire, so a code names the
// same value for the engine's whole life. The engine builds the dictionary
// beside its clone, and Engine.write — the only write that changes a value
// — keeps it exact. A stream keeps the dictionaries across updates
// (stream.go), so a code's number depends on the order values were seen,
// which no output may read: every tie-break compares strs, never codes.
type cellCodes []*column

// column is one coded attribute. Code 0 is Null in every column.
type column struct {
	ids  map[string]int32 // value -> code
	strs []string         // code -> value
	code []int32          // per tuple: the code of its current value
}

const nullCode = 0

func newCellCodes(rules []rule.Rule, d *relation.Relation) cellCodes {
	cc := make(cellCodes, d.Schema.Arity())
	for _, r := range rules {
		if r.Kind != rule.VariableCFD {
			continue
		}
		for _, a := range append([]int{r.CFD.RHS}, r.CFD.LHS...) {
			if cc[a] != nil {
				continue
			}
			col := &column{ids: map[string]int32{relation.Null: nullCode}, strs: []string{relation.Null}, code: make([]int32, d.Len())}
			for i, t := range d.Tuples {
				col.code[i] = col.intern(t.Values[a])
			}
			cc[a] = col
		}
	}
	return cc
}

// copy returns codes the caller may write without touching c: per-tuple
// codes and the value map are copied, and strs is shared with its
// capacity clipped, so a new code's append reallocates.
func (c cellCodes) copy() cellCodes {
	out := make(cellCodes, len(c))
	for a, col := range c {
		if col != nil {
			out[a] = &column{ids: maps.Clone(col.ids), strs: col.strs[:len(col.strs):len(col.strs)], code: slices.Clone(col.code)}
		}
	}
	return out
}

// set codes tuple i's value v, appending the tuple when i is one past the
// last.
func (c *column) set(i int, v string) {
	if i == len(c.code) {
		c.code = append(c.code, 0)
	}
	c.code[i] = c.intern(v)
}

// sparse reports whether more codes name values no tuple holds than name
// values some tuple does (Null counting as held): the dictionary a stream
// keeps only grows, and past this point it is rebuilt from its base.
func (c *column) sparse() bool {
	held := make([]bool, len(c.strs))
	held[nullCode] = true
	live := 1
	for _, k := range c.code {
		if !held[k] {
			held[k] = true
			live++
		}
	}
	return len(c.strs)-live > live
}

// intern returns v's code, assigning the next one on first sight.
func (c *column) intern(v string) int32 {
	id, ok := c.ids[v]
	if !ok {
		id = int32(len(c.strs))
		c.ids[v] = id
		c.strs = append(c.strs, v)
	}
	return id
}

// tally counts the codes of one group in first-appearance order: slot k
// belongs to the k-th distinct code added. A slot is found by a linear
// scan while there are few, then through a map, so the scratch stays
// proportional to the group, not to the dictionary.
type tally struct {
	slots []slot
	at    map[int32]int // code -> slot, once there are more than scanMax slots
}

// slot is one distinct code of a tally.
type slot struct {
	code int32
	n    int32   // occurrences
	conf float64 // summed confidence, in add order
}

const scanMax = 32

// find returns code c's slot, or -1.
func (t *tally) find(c int32) int {
	if t.at != nil {
		if k, ok := t.at[c]; ok {
			return k
		}
		return -1
	}
	for k := range t.slots {
		if t.slots[k].code == c {
			return k
		}
	}
	return -1
}

// add counts one occurrence of code c with confidence conf and returns the
// updated tally, like append: a tally started on a caller's stack array
// stays there until it outgrows it.
func (t tally) add(c int32, conf float64) tally {
	k := t.find(c)
	if k < 0 {
		k = len(t.slots)
		t.slots = append(t.slots, slot{code: c})
		switch {
		case t.at != nil:
			t.at[c] = k
		case k == scanMax:
			t.at = make(map[int32]int, 2*scanMax)
			for j, s := range t.slots {
				t.at[s.code] = j
			}
		}
	}
	t.slots[k].n++
	t.slots[k].conf += conf
	return t
}
