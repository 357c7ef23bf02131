package clean

import (
	"cmp"
	"container/heap"
	"math"
	"strconv"

	"repro/internal/cfd"
	"repro/internal/fault"
	"repro/internal/relation"
	"repro/internal/rule"
)

// egroup is one LHS-equal group of a variable CFD keyed in eRepair's queue:
// the equivalence class of Section 6.1 whose RHS distribution entropy
// measures how certain the correct value is.
type egroup struct {
	keyedGroup
	id      string // "<variable-CFD ordinal>|<LHS key>", the queue's tie-break key
	entropy float64
}

// equeue is eRepair's min-heap of groups ordered by (entropy, id).
type equeue []*egroup

func (q equeue) Len() int { return len(q) }
func (q equeue) Less(i, j int) bool {
	if c := cmp.Compare(q[i].entropy, q[j].entropy); c != 0 {
		return c < 0
	}
	return q[i].id < q[j].id
}
func (q equeue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *equeue) Push(x any)   { *q = append(*q, x.(*egroup)) }
func (q *equeue) Pop() any {
	old := *q
	g := old[len(old)-1]
	*q = old[:len(old)-1]
	return g
}

// ERepair is the entropy-based phase of Section 6: variable-CFD groups with
// more than one RHS value are keyed by (entropy, id) in a min-heap plus an
// id map (the "2-in-1" structure of Section 6.3), and the minimum-entropy
// group — the one whose plurality value is most certain — is resolved
// first. Resolving a group rewrites mutable cells, so the groups whose read
// attributes changed are re-keyed before the next extraction. Fixes are
// marked FixReliable and carry the plurality fraction as confidence; frozen
// cells are never overwritten.
//
// Scheduling: the queue belongs to one call, which drains it. The worklist
// decides what it is re-keyed with. The delta scheduler seeds a call's
// queue with the groups the previous call extracted plus every group
// written since — on the first call, every group — and after each
// resolution re-keys exactly the groups its writes marked dirty. The
// test-only rescan reference re-groups every variable CFD with cfd.Groups
// at the start of a call, and after each resolution every CFD reading the
// written attribute. The live entries end up identical either way, since
// unchanged groups keep their (entropy, id) key.
//
// Streaming updates (stream.go) never mutate a live queue: an Upsert/Delete
// reruns the pipeline on a fresh sub-engine whose queue is seeded from the
// updated base — a deleted tuple's entropy contribution is evicted and its
// group re-keyed simply by never being seeded (tombstoned cells are Null,
// which matches no LHS pattern). TestDeleteEvictsFrozenEntropyGroup pins
// the observable consequence: deleting a member whose value anchored a
// frozen group resolution flips the survivors' resolution exactly as a
// from-scratch run would.
func (e *Engine) ERepair() {
	if e.interrupted() || e.exhausted() {
		return
	}
	// ordinal numbers the variable CFDs in rule order: the queue id's
	// prefix, identical under either worklist.
	ordinal := make([]string, len(e.rules))
	n := 0
	for ri, r := range e.rules {
		if r.Kind == rule.VariableCFD {
			ordinal[ri] = strconv.Itoa(n)
			n++
		}
	}
	if n == 0 {
		return
	}

	var queue equeue
	keyed := make(map[string]*egroup) // id -> the group's live queue entry
	done := make(map[string]bool)     // ids already resolved this call, never re-keyed

	// rekey re-evaluates a batch of groups from the current relation state:
	// each group's keyed entry is dropped, which leaves its heap entry
	// stale, and, unless the group is done, dissolved, or conflict-free, a
	// fresh entry is pushed. The tie-break id is the raw
	// "<ordinal>|<LHS key>" string under both worklists, so they resolve
	// ties in the same order.
	rekey := func(batch []keyedGroup) {
		for k, g := range batch {
			e.fj.At(fault.SiteSeed, k, 0)
			id := ordinal[g.ri] + "|" + g.key
			delete(keyed, id)
			if done[id] || len(g.members) == 0 {
				continue
			}
			e.apply[g.ri].ETuples += len(g.members)
			h, distinct := groupEntropy(e.codes[e.rules[g.ri].CFD.RHS], g.members)
			if distinct < 2 {
				continue // already conflict-free
			}
			eg := &egroup{keyedGroup: g, id: id, entropy: h}
			keyed[id] = eg
			heap.Push(&queue, eg)
		}
	}

	rekey(e.work.regroup(true))
	for queue.Len() > 0 {
		g := heap.Pop(&queue).(*egroup)
		if keyed[g.id] != g {
			continue // stale: re-keyed or dropped since it was pushed
		}
		// Each resolution is one committed transaction (sequential writes
		// plus re-keying); checking between them keeps the queue and the
		// relation mutually consistent at every possible stop.
		if e.interrupted() || e.exhausted() {
			return
		}
		delete(keyed, g.id)
		done[g.id] = true
		e.work.extracted(g.keyedGroup)
		if !e.resolveGroup(e.rules[g.ri].CFD, g) {
			continue
		}
		e.res.GroupsResolved++
		rekey(e.work.regroup(false))
	}
}

// resolveGroup rewrites the group's mutable RHS cells to a single target
// value and reports whether anything changed. A frozen (deterministically
// fixed) cell dictates the target; otherwise the plurality value wins, with
// ties broken by total confidence and then lexicographically, so resolution
// is deterministic.
func (e *Engine) resolveGroup(c *cfd.CFD, g *egroup) bool {
	a, col := c.RHS, e.codes[c.RHS]
	var frozen, vals tally
	for _, i := range g.members {
		t := e.data.Tuples[i]
		if t.Marks[a] == relation.FixDeterministic {
			frozen = frozen.add(col.code[i], 0)
		}
		if v := col.code[i]; v != nullCode {
			vals = vals.add(v, t.Conf[a])
		}
	}
	if len(frozen.slots) > 1 {
		e.conflictf("%s: group %s has conflicting frozen values, cannot resolve", c.Name, g.id)
		return false
	}
	var target slot // the target value's code and tally
	if len(frozen.slots) == 1 {
		target.code = frozen.slots[0].code
		if k := vals.find(target.code); k >= 0 {
			target = vals.slots[k]
		}
	} else {
		if len(vals.slots) == 0 {
			return false // every cell is null: no evidence to propagate
		}
		target = vals.slots[0]
		for _, s := range vals.slots[1:] {
			switch {
			case s.n > target.n,
				s.n == target.n && quantConf(s.conf) > quantConf(target.conf),
				s.n == target.n && quantConf(s.conf) == quantConf(target.conf) && col.strs[s.code] < col.strs[target.code]:
				target = s
			}
		}
	}
	v, conf := col.strs[target.code], float64(target.n)/float64(len(g.members))
	changed := false
	for _, i := range g.members {
		if col.code[i] == target.code || e.data.Tuples[i].Marks[a] == relation.FixDeterministic {
			continue
		}
		e.write(i, a, v, conf, relation.FixReliable, c.Name)
		changed = true
	}
	return changed
}

// groupEntropy returns the Shannon entropy (base 2) of the RHS column col
// over the group members, and the number of distinct values. Null counts
// as a value: a group of one constant plus nulls is uncertain.
//
// The terms are summed in first-appearance order of the values: floating-
// point addition is order-sensitive in the last ulp, and the queue's
// resolution order breaks entropy ties bit-exactly, so the sum must not
// depend on how the values are coded or hashed.
func groupEntropy(col *column, members []int) (float64, int) {
	var buf [8]slot
	t := tally{slots: buf[:0]}
	for _, i := range members {
		t = t.add(col.code[i], 0)
	}
	h := 0.0
	n := float64(len(members))
	for _, s := range t.slots {
		p := float64(s.n) / n
		h -= p * math.Log2(p)
	}
	return h, len(t.slots)
}

func hasAttr(attrs []int, a int) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}
