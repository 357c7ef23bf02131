package clean

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/avl"
	"repro/internal/cfd"
	"repro/internal/fault"
	"repro/internal/relation"
	"repro/internal/rule"
)

// egroup is one LHS-equal group of a variable CFD: the equivalence class of
// Section 6.1 whose RHS distribution entropy measures how certain the
// correct value is.
type egroup struct {
	ci      int    // index into the engine's variable-CFD list
	id      string // "<ci>|<LHS key>", the AVL tie-break key
	key     int32  // interned LHS key, for re-keying via the group index
	members []int  // tuple indexes, in relation order
	entropy float64
}

// eref names one group for re-keying at the next ERepair call. The key is
// the group index's interned symbol; the rescan engine, which has no group
// indexes, never records refs.
type eref struct {
	ci  int
	key int32
}

// ERepair is the entropy-based phase of Section 6: variable-CFD groups with
// more than one RHS value are keyed by (entropy, id) in an AVL tree (the
// "2-in-1" structure of Section 6.3), and the minimum-entropy group — the
// one whose plurality value is most certain — is resolved first. Resolving a
// group rewrites mutable cells, so the groups whose read attributes changed
// are re-keyed before the next extraction. Fixes are marked FixReliable and
// carry the plurality fraction as confidence; frozen cells are never
// overwritten.
//
// Scheduling: the delta-driven engine re-keys exactly the groups the
// scheduler marked dirty under the resolution's writes — the groups of
// every rule reading the changed attribute that contain a changed tuple.
// With Options.Rescan, every group of every affected rule is re-grouped from
// the relation with cfd.Groups, as in the reference engine; the tree ends up
// identical either way, since unchanged groups keep their (entropy, id) key.
//
// Streaming updates (stream.go) never mutate a live tree: the AVL has no
// removal path keyed by external writes, and none is needed, because an
// Upsert/Delete reruns the pipeline on a fresh sub-engine whose tree is
// seeded from the updated base — a deleted tuple's entropy contribution is
// evicted and its group re-keyed simply by never being seeded (tombstoned
// cells are Null, which matches no LHS pattern). The streaming shell holds
// no tree at all: a successful update commits only the sub-run's Result,
// and the tree is dropped with the sub-run. TestDeleteEvictsFrozenEntropyGroup pins the
// observable consequence: deleting a member whose value anchored a frozen
// group resolution flips the survivors' resolution exactly as a
// from-scratch run would.
func (e *Engine) ERepair() {
	if e.interrupted() || e.exhausted() {
		return
	}
	var varCFDs []*cfd.CFD
	var varRules []int // rule indexes parallel to varCFDs
	for ri, r := range e.rules {
		if r.Kind == rule.VariableCFD {
			varCFDs = append(varCFDs, r.CFD)
			varRules = append(varRules, ri)
		}
	}
	if len(varCFDs) == 0 {
		return
	}

	var tree *avl.Tree
	var groups map[string]*egroup // id -> group currently keyed in tree
	done := make(map[string]bool) // ids already resolved this call, never re-keyed

	if e.opts.Rescan {
		tree, groups = &avl.Tree{}, make(map[string]*egroup)
	} else {
		if e.etree == nil {
			e.etree, e.egroups = &avl.Tree{}, make(map[string]*egroup)
		}
		tree, groups = e.etree, e.egroups
	}

	// rekey re-evaluates one group of one CFD from the current relation
	// state: its stale tree entry is removed and, unless the group is done,
	// dissolved, or conflict-free, a fresh entry is inserted. The AVL
	// tie-break id stays the raw "<ci>|<LHS key>" string — both engines must
	// resolve ties in the same order, and the rescan reference never sees
	// the group index's interned symbols.
	rekey := func(vi int, key string, kid int32, members []int) {
		id := strconv.Itoa(vi) + "|" + key
		if g := groups[id]; g != nil {
			tree.Delete(avl.Key{Entropy: g.entropy, ID: id})
			delete(groups, id)
		}
		if done[id] || len(members) == 0 {
			return
		}
		e.apply[varRules[vi]].ETuples += len(members)
		g := &egroup{ci: vi, id: id, key: kid, members: members}
		var distinct int
		g.entropy, distinct = groupEntropy(e.data, varCFDs[vi].RHS, g.members)
		if distinct < 2 {
			return // already conflict-free
		}
		groups[id] = g
		tree.Insert(avl.Key{Entropy: g.entropy, ID: g.id})
	}

	// rekeyFromIndex snapshots the group's current members out of the
	// scheduler's persistent index. Snapshotting matters: the index slices
	// mutate under later writes, while a tree entry must keep the
	// membership it was keyed with until re-keyed — the same staleness
	// contract the rescan path gets from its cfd.Groups snapshots.
	rekeyFromIndex := func(vi int, kid int32) {
		gi := e.sched.gidx[varRules[vi]]
		var members []int
		if cg := gi.groups[kid]; cg != nil {
			members = append([]int(nil), cg.members...)
		}
		rekey(vi, gi.syms.str(kid), kid, members)
	}

	// rebuild re-groups one whole CFD from the current relation state — the
	// full-rescan reference path, O(|D|) per call.
	rebuild := func(vi int) {
		prefix := strconv.Itoa(vi) + "|"
		for id, g := range groups { //det:ok maporder keyed deletions; the set of removed entries does not depend on visit order
			if strings.HasPrefix(id, prefix) {
				tree.Delete(avl.Key{Entropy: g.entropy, ID: id})
				delete(groups, id)
			}
		}
		for _, cg := range cfd.Groups(e.data, varCFDs[vi]) {
			rekey(vi, cg.Key, -1, cg.Members)
		}
	}

	switch {
	case e.opts.Rescan:
		for vi := range varCFDs {
			rebuild(vi)
		}
	case !e.eSeeded:
		// First call: seed every group of every variable CFD out of the
		// group indexes — no relation scan — after dropping the marks the
		// seed is about to cover. The entropy pass over the groups is
		// embarrassingly parallel — each task reads only its own member
		// snapshot and the live relation, which nothing writes during the
		// fan-out — so above the sequential cutoff it runs through
		// fanOut, with per-task result slots merged afterwards. The merge is
		// order-independent (the AVL keys by (entropy, id), ETuples is a
		// sum), so the map iteration and the fan-out schedule never show.
		e.sched.resetE()
		type seedTask struct {
			vi       int
			key      string
			kid      int32
			members  []int
			entropy  float64
			distinct int
		}
		var tasks []seedTask
		work := 0
		for vi, ri := range varRules {
			gi := e.sched.gidx[ri]
			for kid, cg := range gi.groups { //det:ok maporder task slots are merged order-independently into the AVL by (entropy, id) key; summed counters commute
				if cg == nil || len(cg.members) == 0 {
					continue
				}
				tasks = append(tasks, seedTask{
					vi:      vi,
					key:     gi.syms.str(kid),
					kid:     kid,
					members: append([]int(nil), cg.members...),
				})
				work += len(cg.members)
			}
		}
		if e.inline(work) {
			for ti, t := range tasks {
				e.fj.At(fault.SiteSeed, ti, 0)
				rekey(t.vi, t.key, t.kid, t.members)
			}
		} else {
			if err := fanOut(e.ctx, e.fj, "eRepair", e.workers, len(tasks), func(ti int) {
				t := &tasks[ti]
				e.fj.At(fault.SiteSeed, ti, 0)
				t.entropy, t.distinct = groupEntropy(e.data, varCFDs[t.vi].RHS, t.members)
			}); err != nil {
				// Seeding never wrote the relation — the tasks only fill
				// their own slots — so poisoning the engine and leaving
				// eSeeded false is a consistent stop.
				if e.fail == nil {
					e.fail = err
				}
				return
			}
			// Replay rekey's bookkeeping per task, in slice order: count the
			// members examined, then key the still-conflicted groups. The
			// tree and groups map start empty on the seeding call and done
			// is empty, so rekey's stale-delete and done checks are no-ops
			// here by construction.
			for ti := range tasks {
				t := &tasks[ti]
				e.apply[varRules[t.vi]].ETuples += len(t.members)
				if t.distinct < 2 {
					continue
				}
				id := strconv.Itoa(t.vi) + "|" + t.key
				g := &egroup{ci: t.vi, id: id, key: t.kid, members: t.members, entropy: t.entropy}
				groups[id] = g
				tree.Insert(avl.Key{Entropy: g.entropy, ID: g.id})
			}
		}
		e.eSeeded = true
	default:
		// Later call: the previous call drained the tree, recording every
		// extracted group in eredo. Groups untouched since keep their keys;
		// re-evaluate the extracted ones and anything written since.
		redo := e.eredo
		e.eredo = nil
		for _, p := range redo {
			rekeyFromIndex(p.ci, p.key)
		}
		for vj, ri := range varRules {
			for _, kid := range e.sched.gidx[ri].takeKeys(phaseE) {
				rekeyFromIndex(vj, kid)
			}
		}
	}
	for tree.Len() > 0 {
		// Each resolution is one committed transaction (sequential writes
		// plus re-keying); checking between them keeps the tree and the
		// relation mutually consistent at every possible stop.
		if e.interrupted() || e.exhausted() {
			return
		}
		k, _ := tree.Min()
		tree.Delete(k)
		g := groups[k.ID]
		delete(groups, k.ID)
		done[g.id] = true
		if !e.opts.Rescan {
			e.eredo = append(e.eredo, eref{ci: g.ci, key: g.key})
		}
		c := varCFDs[g.ci]
		if !e.resolveGroup(c, g) {
			continue
		}
		e.res.GroupsResolved++
		if e.opts.Rescan {
			for vj, c2 := range varCFDs {
				if c2.RHS == c.RHS || hasAttr(c2.LHS, c.RHS) {
					rebuild(vj)
				}
			}
		} else {
			for vj, ri := range varRules {
				for _, kid := range e.sched.gidx[ri].takeKeys(phaseE) {
					rekeyFromIndex(vj, kid)
				}
			}
		}
	}
}

// resolveGroup rewrites the group's mutable RHS cells to a single target
// value and reports whether anything changed. A frozen (deterministically
// fixed) cell dictates the target; otherwise the plurality value wins, with
// ties broken by total confidence and then lexicographically, so resolution
// is deterministic.
func (e *Engine) resolveGroup(c *cfd.CFD, g *egroup) bool {
	a := c.RHS
	frozen := make(map[string]bool)
	for _, i := range g.members {
		t := e.data.Tuples[i]
		if t.Marks[a] == relation.FixDeterministic {
			frozen[t.Values[a]] = true
		}
	}
	if len(frozen) > 1 {
		e.conflictf("%s: group %s has conflicting frozen values, cannot resolve", c.Name, g.id)
		return false
	}
	count := make(map[string]int)
	confSum := make(map[string]float64)
	for _, i := range g.members {
		t := e.data.Tuples[i]
		if v := t.Values[a]; !relation.IsNull(v) {
			count[v]++
			confSum[v] += t.Conf[a]
		}
	}
	var target string
	if len(frozen) == 1 {
		for v := range frozen { //det:ok maporder single-entry map: len(frozen) == 1 on this branch
			target = v
		}
	} else {
		for v, n := range count { //det:ok maporder strict total order (count, quantized conf, value) picks the same target from any visit order
			switch m := count[target]; {
			case target == "" || n > m,
				n == m && quantConf(confSum[v]) > quantConf(confSum[target]),
				n == m && quantConf(confSum[v]) == quantConf(confSum[target]) && v < target:
				target = v
			}
		}
		if target == "" {
			return false // every cell is null: no evidence to propagate
		}
	}
	conf := float64(count[target]) / float64(len(g.members))
	changed := false
	for _, i := range g.members {
		t := e.data.Tuples[i]
		if t.Values[a] == target || t.Marks[a] == relation.FixDeterministic {
			continue
		}
		e.res.Fixes = append(e.res.Fixes, Fix{
			Tuple: i, Attr: a, Attribute: e.data.Schema.Attrs[a],
			Old: t.Values[a], New: target, Conf: conf,
			Mark: relation.FixReliable, Rule: c.Name,
		})
		t.Set(a, target, conf, relation.FixReliable)
		e.noteWrite(i, a)
		changed = true
	}
	return changed
}

// groupEntropy returns the Shannon entropy (base 2) of the RHS value
// distribution over the group members, and the number of distinct values.
// Null counts as a value: a group of one constant plus nulls is uncertain.
//
// The terms are summed in first-appearance order of the values, not map
// order: floating-point addition is order-sensitive in the last ulp, and the
// AVL resolution order breaks entropy ties bit-exactly, so a map-order sum
// would make the resolution sequence vary run to run whenever two groups
// share a distribution shape.
func groupEntropy(d *relation.Relation, a int, members []int) (float64, int) {
	count := make(map[string]int)
	order := make([]string, 0, 8)
	for _, i := range members {
		v := d.Tuples[i].Values[a]
		if _, ok := count[v]; !ok {
			order = append(order, v)
		}
		count[v]++
	}
	h := 0.0
	n := float64(len(members))
	for _, v := range order {
		p := float64(count[v]) / n
		h -= p * math.Log2(p)
	}
	return h, len(count)
}

func hasAttr(attrs []int, a int) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}
