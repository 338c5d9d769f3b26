package statespace

import (
	"fmt"

	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// CompactTo garbage-collects the space down to the states at or above the
// given stability frontier, re-rooting the space at the frontier state.
//
// The paper's protocols never discard state (its future-work section poses
// the metadata lower bound as an open problem); this is the reproduction's
// extension, measured in experiment E3. The frontier must satisfy two
// properties, which the CSS server establishes before telling replicas to
// compact (see css.Server.AdvanceFrontier):
//
//  1. a state with exactly the frontier's operation set exists — true for
//     any prefix of the server's total order, since by Lemma 6.4 the
//     leftmost path from the initial state carries all operations in total
//     order; and
//  2. every operation still in flight (and every future operation) has a
//     context that contains the frontier, so no pruned state can ever be
//     needed as a matching state or appear on a leftmost transformation
//     path again (all such states contain the matching state's set).
//
// States whose operation sets do not contain the frontier are dropped. The
// survivors are copied into fresh storage in their old order and renumbered,
// so every State from before the call is stale. A survivor whose creation
// parent was dropped is re-chained through an incoming transition from a
// survivor one operation smaller; only a state with none — in a CSS space,
// the new root alone — gets its operation set materialized. Under WithDocs
// a lazy document link that crosses out of the kept set is cut the same
// way, by materializing the document.
func (s *Space) CompactTo(frontier opid.Set) error {
	root, ok := s.lookup(frontier, "")
	if !ok {
		return fmt.Errorf("statespace: no state at frontier %s", frontier)
	}
	if root == s.initial {
		return nil // nothing to do
	}

	// A state contains the frontier iff the number of its operations outside
	// the frontier equals depth−|frontier|. Counting along the creation-parent
	// chain with memoization makes the whole scan O(total chain nodes) — no
	// per-state set materialization, which would be O(states × history) in the
	// common compaction (a long-lived document whose space is nearly one
	// chain, with most states below or just above the frontier).
	n := s.states.n
	fl := int32(len(frontier))
	notIn := make([]int32, n)
	for i := range notIn {
		notIn[i] = none
	}
	var path []int32
	countNotIn := func(i int32) int32 {
		path = path[:0]
		var c int32
		for cur := i; ; {
			if v := notIn[cur]; v != none {
				c = v
				break
			}
			r := s.states.at(cur)
			if r.parent == none {
				for id := range s.base[cur] {
					if !frontier.Contains(id) {
						c++
					}
				}
				notIn[cur] = c
				break
			}
			path = append(path, cur)
			cur = r.parent
		}
		for k := len(path) - 1; k >= 0; k-- {
			if !frontier.Contains(s.states.at(path[k]).added) {
				c++
			}
			notIn[path[k]] = c
		}
		return c
	}
	keep := make([]int32, n) // old index → new index, or none
	var kept int32
	for i := int32(0); i < n; i++ {
		d := s.states.at(i).depth
		// A state smaller than the frontier cannot contain it.
		if d >= fl && countNotIn(i) == d-fl {
			keep[i] = kept
			kept++
		} else {
			keep[i] = none
		}
	}
	if keep[s.final] == none {
		return fmt.Errorf("statespace: compaction would remove the final state %s", s.handle(s.final))
	}

	t := &Space{
		opIdx:      make(map[opid.OpID]int32),
		base:       make(map[int32]opid.Set),
		initial:    keep[root],
		final:      keep[s.final],
		gen:        s.gen + 1,
		pathBuf:    s.pathBuf[:0],
		recordDocs: s.recordDocs,
		verifyCP1:  s.verifyCP1,
		relaxed:    s.relaxed,
		audit:      s.audit,
		auditLog:   s.auditLog,
	}
	// Operation entries are retained only for operations still labeling
	// transitions, or still pending (a pending operation's promote
	// must continue to work even if compaction raced ahead of the
	// acknowledgement).
	opMap := make([]int32, s.ops.n)
	for i := range opMap {
		opMap[i] = none
	}
	mapOp := func(oi int32) int32 {
		if opMap[oi] == none {
			r := *s.ops.at(oi)
			opMap[oi] = t.ops.push(r)
			if _, ok := t.opIdx[r.op.ID]; !ok {
				t.opIdx[r.op.ID] = opMap[oi]
			}
		}
		return opMap[oi]
	}
	for _, oi := range s.opIdx {
		if s.ops.at(oi).key == PendingKey {
			mapOp(oi)
		}
	}

	for i := int32(0); i < n; i++ {
		if keep[i] == none {
			continue
		}
		r := s.states.at(i)
		nr := stateRec{hash: r.hash, depth: r.depth, parent: none, out: none, in: none}
		if r.parent != none && keep[r.parent] != none {
			nr.parent, nr.added = keep[r.parent], r.added
		} else if p, e, ok := s.rechain(i, keep); ok {
			nr.parent, nr.added = keep[p], s.opID(s.edges.at(e).op())
		} else {
			t.base[keep[i]] = s.opsOf(i)
		}
		t.states.push(nr)
		if tag := s.tags[i]; tag != "" {
			if t.tags == nil {
				t.tags = make(map[int32]string)
			}
			t.tags[keep[i]] = tag
		}
		if s.recordDocs {
			d := s.docs[i]
			if d.parent != none && keep[d.parent] == none {
				d = docRec{doc: s.doc(i), parent: none}
			} else if d.parent != none {
				d.parent = keep[d.parent]
			}
			t.docs = append(t.docs, d)
		}
	}

	// Copy the transitions between survivors, each sibling list in order.
	for i := int32(0); i < n; i++ {
		if keep[i] == none {
			continue
		}
		last := none
		for e := s.states.at(i).out; e != none; e = s.edges.at(e).sib {
			r := s.edges.at(e)
			if keep[r.to] == none {
				continue
			}
			ref := uint32(mapOp(r.op()))<<kindBits | uint32(r.kind())
			ne := t.edges.push(edgeRec{ref: ref, pos: r.pos, from: keep[i], to: keep[r.to], sib: none, par: none})
			if r.kind() == oddKind {
				if t.odd == nil {
					t.odd = make(map[int32]ot.Op)
				}
				t.odd[ne] = s.odd[e]
			}
			if last == none {
				t.states.at(keep[i]).out = ne
			} else {
				t.edges.at(last).sib = ne
			}
			last = ne
			to := t.states.at(keep[r.to])
			t.edges.at(ne).par, to.in = to.in, ne
		}
	}
	t.rehash(bucketsFor(int(kept)))
	*s = *t
	return nil
}

// rechain finds an incoming transition of state i from a kept state exactly
// one operation smaller — a creation parent for i in the compacted space.
func (s *Space) rechain(i int32, keep []int32) (from, edge int32, ok bool) {
	r := s.states.at(i)
	var ops opid.Set
	for e := r.in; e != none; e = s.edges.at(e).par {
		er := s.edges.at(e)
		f := s.states.at(er.from)
		id := s.opID(er.op())
		if keep[er.from] == none || f.depth != r.depth-1 || f.hash^id.Hash() != r.hash {
			continue
		}
		if ops == nil {
			ops = s.opsOf(i)
		}
		if ops.Contains(id) && !s.contains(er.from, id) && s.subsetOf(er.from, ops) {
			return er.from, e, true
		}
	}
	return none, none, false
}

// Contains reports whether the space still holds a state for the given
// operation set (useful after compaction).
func (s *Space) Contains(ops opid.Set) bool {
	_, ok := s.lookup(ops, "")
	return ok
}
