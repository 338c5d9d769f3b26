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
// States whose operation sets do not contain the frontier are dropped.
// Survivors' creation-parent (and lazy-document) chains may pass through
// dropped states; any link that crosses out of the kept set is cut, with the
// operation set (and, under WithDocs, the document) materialized at the cut —
// dropped State objects then become garbage-collectible. Links between
// survivors stay lazy.
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
	fl := len(frontier)
	notInF := make(map[*State]int, s.numStates)
	var path []*State
	countNotIn := func(st *State) int {
		path = path[:0]
		cur, n := st, 0
		for {
			if v, ok := notInF[cur]; ok {
				n = v
				break
			}
			if cur.base != nil {
				for id := range cur.base {
					if !frontier.Contains(id) {
						n++
					}
				}
				notInF[cur] = n
				break
			}
			path = append(path, cur)
			cur = cur.parent
		}
		for i := len(path) - 1; i >= 0; i-- {
			c := path[i]
			if !frontier.Contains(c.added) {
				n++
			}
			notInF[c] = n
		}
		return n
	}

	kept := make(map[*State]struct{}, s.numStates)
	for _, st := range s.byID {
		if st == nil {
			continue
		}
		// A state smaller than the frontier cannot contain it.
		if st.depth < fl {
			continue
		}
		if countNotIn(st) == st.depth-fl {
			kept[st] = struct{}{}
		}
	}

	// Drop edges that cross out of the kept set. Order keys are retained
	// only for operations still labeling edges or still pending (a pending
	// operation's promote must continue to work even if compaction raced
	// ahead of the acknowledgement).
	orderOf := make(map[opid.OpID]*OrderKey)
	numEdges := 0
	for st := range kept {
		edges := st.edges[:0]
		for _, e := range st.edges {
			if _, ok := kept[e.To]; ok {
				edges = append(edges, e)
				orderOf[e.Op.ID] = e.key
				numEdges++
			}
		}
		st.edges = edges
		parents := st.parents[:0]
		for _, e := range st.parents {
			if _, ok := kept[e.From]; ok {
				parents = append(parents, e)
			}
		}
		st.parents = parents
	}
	// The new root keeps no parents: everything before the frontier is gone.
	root.parents = nil

	// Detach survivors from dropped chain states. Only a survivor whose
	// creation parent was dropped needs anchoring at a materialized base —
	// chains that stay within the kept set remain valid (they terminate, by
	// induction, at an anchored state) and keep their O(1) representation.
	// Likewise a lazy document link is cut only when it crosses out of the
	// kept set.
	for st := range kept {
		if st.base == nil {
			if _, ok := kept[st.parent]; !ok {
				ops := st.Ops()
				st.base = ops
				st.parent = nil
				st.added = opid.OpID{}
			}
		}
		if x := st.x; x != nil && x.docParent != nil {
			if _, ok := kept[x.docParent]; !ok {
				if s.recordDocs {
					st.Doc()
				}
				x.docParent = nil
				x.docOp = ot.Op{}
			}
		}
	}
	for id, cell := range s.orderOf {
		if *cell == PendingKey {
			orderOf[id] = cell
		}
	}

	// Rebuild the dense and intern indexes over the survivors; StateIDs are
	// stable across compaction (holes stay nil).
	byHash := make(map[uint64]*State, len(kept))
	for i, st := range s.byID {
		if st == nil {
			continue
		}
		if _, ok := kept[st]; !ok {
			s.byID[i] = nil
			continue
		}
		h := st.hash ^ tagHash(st.tag())
		st.collide = byHash[h]
		byHash[h] = st
	}
	s.byHash = byHash
	s.numStates = len(kept)
	s.initial = root
	s.orderOf = orderOf
	s.numEdges = numEdges
	if _, ok := kept[s.final]; !ok {
		return fmt.Errorf("statespace: compaction removed the final state %s", s.final)
	}
	return nil
}

// Contains reports whether the space still holds a state for the given
// operation set (useful after compaction).
func (s *Space) Contains(ops opid.Set) bool {
	_, ok := s.lookup(ops, "")
	return ok
}
