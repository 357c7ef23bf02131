package relation

import (
	"fmt"
	"strings"
)

// FixMark records which cleaning phase last wrote a cell. The three non-zero
// marks correspond to the tri-level accuracy classification of Section 3.2.
type FixMark uint8

const (
	// FixNone marks a cell never touched by the cleaning process.
	FixNone FixMark = iota
	// FixDeterministic marks a confidence-based fix found by cRepair.
	FixDeterministic
	// FixReliable marks an entropy-based fix found by eRepair.
	FixReliable
	// FixPossible marks a heuristic fix found by hRepair.
	FixPossible
)

// String returns a short human-readable name for the mark.
func (m FixMark) String() string {
	switch m {
	case FixNone:
		return "none"
	case FixDeterministic:
		return "deterministic"
	case FixReliable:
		return "reliable"
	case FixPossible:
		return "possible"
	default:
		return fmt.Sprintf("FixMark(%d)", uint8(m))
	}
}

// Tuple is a row of a relation. Values, Conf and Marks are parallel slices
// indexed by attribute position. ID identifies the tuple within its relation
// and is stable across cloning, so that repairs can be compared cell-by-cell
// with the original data.
type Tuple struct {
	ID     int
	Values []string
	Conf   []float64
	Marks  []FixMark
}

// NewTuple creates a tuple with the given values, zero confidences and no
// fix marks.
func NewTuple(id int, values []string) *Tuple {
	return &Tuple{
		ID:     id,
		Values: append([]string(nil), values...),
		Conf:   make([]float64, len(values)),
		Marks:  make([]FixMark, len(values)),
	}
}

// Clone returns a deep copy of t.
func (t *Tuple) Clone() *Tuple {
	return &Tuple{
		ID:     t.ID,
		Values: append([]string(nil), t.Values...),
		Conf:   append([]float64(nil), t.Conf...),
		Marks:  append([]FixMark(nil), t.Marks...),
	}
}

// Key returns a canonical string key for the projection of t on attrs,
// suitable for map indexing. The encoding is injective: fields are joined by
// an ASCII unit separator, and occurrences of the separator or the escape
// byte inside values are escaped.
func (t *Tuple) Key(attrs []int) string {
	return string(AppendKey(nil, t, attrs))
}

// AppendKey appends the canonical projection key of t on attrs (the same
// encoding as Key) to dst and returns the extended slice. Hot paths — the
// MD equality-blocking lookup and its memo — build keys into a reusable
// buffer and probe maps with string(buf), so a key lookup allocates
// nothing.
func AppendKey(dst []byte, t *Tuple, attrs []int) []byte {
	for i, a := range attrs {
		if i > 0 {
			dst = append(dst, 0x1f) // ASCII unit separator
		}
		v := t.Values[a]
		if strings.IndexByte(v, 0x1f) >= 0 || strings.IndexByte(v, 0x1e) >= 0 {
			v = strings.ReplaceAll(v, "\x1e", "\x1e\x02")
			v = strings.ReplaceAll(v, "\x1f", "\x1e\x01")
		}
		dst = append(dst, v...)
	}
	return dst
}

// Set assigns value v to attribute a with confidence cf and mark m.
func (t *Tuple) Set(a int, v string, cf float64, m FixMark) {
	t.Values[a] = v
	t.Conf[a] = cf
	t.Marks[a] = m
}

// String formats the tuple as (v1, v2, ...).
func (t *Tuple) String() string {
	return "(" + strings.Join(t.Values, ", ") + ")"
}
