// Package spec implements the three formal specifications of the replicated
// list object reviewed in Section 3 of the paper, as checkers over recorded
// histories (abstract executions with vis = causal order):
//
//   - CheckConvergence — the convergence property Acp (Definition 3.1):
//     reads that observe the same set of list updates return the same list.
//   - CheckWeak — the weak list specification Aweak (Definition 3.3),
//     checked via condition 1 plus pairwise state compatibility, which
//     Lemma 8.3 proves equivalent to the irreflexivity of the list order.
//   - CheckStrong — the strong list specification Astrong (Definition 3.2),
//     checked via condition 1 plus acyclicity of the union of the returned
//     lists' orders, which is exactly the existence of a transitive,
//     irreflexive, total list order over all inserted elements.
//
// Both list checkers stand on one graph: an edge a → b for every adjacent
// pair of a returned list, with its strongly connected components. Strong
// asks that every component be one element. Weak asks for compatibility
// only inside components: lists that order a and b oppositely give paths
// a ⇝ b and b ⇝ a, so a and b share one. That is near-linear when
// components are small, as in converging histories. Condition 1 keeps a
// running live set per replica instead of replaying every visible update.
//
// A checker returns nil when the history satisfies the specification and a
// descriptive *Violation otherwise. The checkers are deliberately
// protocol-agnostic: the CSS/CSCW histories must pass CheckConvergence and
// CheckWeak but fail CheckStrong on the Figure 7 scenario; RGA histories
// must pass all three; the broken protocol's Figure 8 history must fail
// CheckConvergence and CheckWeak.
package spec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// Spec names a specification for reporting.
type Spec string

// The three specifications.
const (
	Convergence Spec = "convergence"
	WeakList    Spec = "weak-list"
	StrongList  Spec = "strong-list"
)

// Violation describes why a history fails a specification.
type Violation struct {
	Spec   Spec
	Reason string
	Events []core.Event // the offending events, when identifiable
}

// Error implements the error interface.
func (v *Violation) Error() string {
	msg := fmt.Sprintf("%s violated: %s", v.Spec, v.Reason)
	for _, e := range v.Events {
		msg += "\n  " + e.String()
	}
	return msg
}

// AsViolation extracts a *Violation from an error chain.
func AsViolation(err error) (*Violation, bool) {
	var v *Violation
	ok := errors.As(err, &v)
	return v, ok
}

// CheckConvergence verifies Definition 3.1: for every pair of read events
// whose visible update sets are equal, the returned lists must be equal.
//
// Reads are bucketed by the hash of their visible sets (opid.Set.Hash); a
// bucket keeps the first read of each distinct set that hashed there, and
// every hit is confirmed with Set.Equal, so a collision costs a comparison,
// never a verdict. Each read costs O(V) for the hash and the comparison.
func CheckConvergence(h *core.History) error {
	byVisible := make(map[uint64][]int) // hash → first read of each set
	for i, e := range h.Events {
		if !e.IsRead() {
			continue
		}
		hash := e.Visible.Hash()
		bucket := byVisible[hash]
		k := slices.IndexFunc(bucket, func(j int) bool { return h.Events[j].Visible.Equal(e.Visible) })
		if k < 0 {
			byVisible[hash] = append(bucket, i)
			continue
		}
		if prev := h.Events[bucket[k]]; !list.ElemsEqual(prev.Returned, e.Returned) {
			return &Violation{
				Spec: Convergence,
				Reason: fmt.Sprintf("reads with identical visible updates returned %q and %q",
					list.Render(prev.Returned), list.Render(e.Returned)),
				Events: []core.Event{prev, e},
			}
		}
	}
	return nil
}

// CheckWeak verifies the weak list specification (Definition 3.3):
// condition 1 for every event (checkCondition1), and condition 2, which
// Lemma 8.3 reduces to pairwise compatibility of the returned lists
// (Definition 8.2).
//
// Compatibility is checked only inside the strongly connected components
// of the list-order graph (listGraph). If two lists order a and b
// oppositely, the adjacent pairs of the first are a path a ⇝ b and those of
// the second a path b ⇝ a, so a and b share a component. Two elements of
// different components are therefore ordered alike by every list that holds
// both, and the lists are pairwise compatible iff their projections onto
// each component of two or more elements are.
func CheckWeak(h *core.History) error {
	if err := checkCondition1(h, WeakList); err != nil {
		return err
	}
	return newListGraph(h).checkCompatible()
}

// CheckStrong verifies the strong list specification (Definition 3.2):
// condition 1 for every event, plus the existence of a single transitive,
// irreflexive, total list order lo consistent with every returned list —
// equivalently, acyclicity of the list-order graph: any topological order
// of it is such an lo. Condition 1 rules out an element adjacent to itself,
// so the graph is acyclic iff every strongly connected component has one
// element.
func CheckStrong(h *core.History) error {
	if err := checkCondition1(h, StrongList); err != nil {
		return err
	}
	return newListGraph(h).checkAcyclic()
}

// CheckAll runs all three checkers and returns the violations found, keyed
// by specification. An empty map means the history satisfies everything.
func CheckAll(h *core.History) map[Spec]error {
	out := make(map[Spec]error)
	if err := CheckConvergence(h); err != nil {
		out[Convergence] = err
	}
	if err := CheckWeak(h); err != nil {
		out[WeakList] = err
	}
	if err := CheckStrong(h); err != nil {
		out[StrongList] = err
	}
	return out
}

// checkCondition1 verifies, for every event e = do(op, w), the shared
// condition 1 of Definitions 3.2/3.3:
//
//	1a) w contains exactly the elements visible to e (reflexively) that
//	    have been inserted but not deleted;
//	1b) is deferred to the list-order checks (compatibility/acyclicity);
//	1c) elements are inserted at the specified position:
//	    op = Ins(a, k) ⟹ a = w[min(k, n-1)] where n = len(w).
//
// It also enforces the paper's standing uniqueness assumption: no element
// appears twice in a returned list.
func checkCondition1(h *core.History, spec Spec) error {
	byID := make(map[opid.OpID]ot.Op)
	for _, u := range h.Events {
		if u.Op.IsUpdate() {
			byID[u.Op.ID] = u.Op
		}
	}
	violation := func(e core.Event, format string, args ...any) error {
		return &Violation{Spec: spec, Reason: fmt.Sprintf(format, args...), Events: []core.Event{e}}
	}
	views := make(map[string]*visibleLive)
	seen := make(map[opid.OpID]struct{})
	var fresh []opid.OpID
	for _, e := range h.Events {
		// Uniqueness within the returned list.
		clear(seen)
		for _, el := range e.Returned {
			if _, dup := seen[el.ID]; dup {
				return violation(e, "returned list %q contains element %s twice", list.Render(e.Returned), el.ID)
			}
			seen[el.ID] = struct{}{}
		}

		// Condition 1a: visible-and-live elements, computed over ≤vis (the
		// reflexive closure: the event's own operation counts, for this
		// event only). Seed elements of a non-empty initial document count
		// as inserted before everything.
		v := views[e.Replica]
		if v == nil {
			v = &visibleLive{}
			views[e.Replica] = v
		}
		fresh = v.advance(h.Seed, byID, e.Visible, fresh)
		own := e.Op.Elem.ID
		_, ownLive := v.live[own]
		_, ownDead := v.dead[own]
		ownIns := e.Op.Kind == ot.KindIns && !ownDead
		want := len(v.live)
		if ownIns && !ownLive {
			want++
		} else if e.Op.Kind == ot.KindDel && ownLive {
			want--
		}
		if want != len(e.Returned) {
			return violation(e, "condition 1a: returned %d elements, %d visible live elements", len(e.Returned), want)
		}
		for _, el := range e.Returned {
			_, ok := v.live[el.ID]
			if el.ID == own && e.Op.IsUpdate() {
				ok = ownIns
			}
			if !ok {
				return violation(e, "condition 1a: returned element %s is not visible-and-live", el.ID)
			}
		}

		// Condition 1c.
		if e.Op.Kind == ot.KindIns {
			n := len(e.Returned)
			if n == 0 {
				return violation(e, "condition 1c: insert returned an empty list")
			}
			idx := e.Op.Pos
			if idx > n-1 {
				idx = n - 1
			}
			if e.Returned[idx].ID != e.Op.Elem.ID {
				return violation(e, "condition 1c: %s not at position min(%d,%d)", e.Op, e.Op.Pos, n-1)
			}
		}
	}
	return nil
}

// visibleLive is condition 1a's running state at one replica: the visible
// set of its previous event, the elements deleted by it, and the elements
// live under it — the seed and the visible inserts minus the deleted.
type visibleLive struct {
	vis        opid.Set
	live, dead map[opid.OpID]struct{}
}

// advance moves the view to the visible set vis, applying only the updates
// the previous event did not see: their inserts, then their deletes. A
// delete is only ever generated for an element whose insert is visible too
// (visibility is causally closed), and an insert whose element is already
// deleted stays deleted, so the view is the same as a replay of all of vis.
// If vis is not a superset of the previous set, the view is rebuilt from
// the seed. fresh is scratch space, returned for reuse.
func (v *visibleLive) advance(seed []list.Elem, byID map[opid.OpID]ot.Op, vis opid.Set, fresh []opid.OpID) []opid.OpID {
	fresh, kept := fresh[:0], 0
	for id := range vis {
		if v.vis.Contains(id) {
			kept++
		} else {
			fresh = append(fresh, id)
		}
	}
	if v.live == nil || kept < len(v.vis) {
		v.live, v.dead, fresh = make(map[opid.OpID]struct{}), make(map[opid.OpID]struct{}), fresh[:0]
		for _, el := range seed {
			v.live[el.ID] = struct{}{}
		}
		for id := range vis {
			fresh = append(fresh, id)
		}
	}
	v.vis = vis
	for _, kind := range [...]ot.Kind{ot.KindIns, ot.KindDel} {
		for _, id := range fresh {
			op, ok := byID[id]
			if !ok || op.Kind != kind {
				continue
			}
			if _, gone := v.dead[op.Elem.ID]; kind == ot.KindIns && !gone {
				v.live[op.Elem.ID] = struct{}{}
			} else if kind == ot.KindDel {
				delete(v.live, op.Elem.ID)
				v.dead[op.Elem.ID] = struct{}{}
			}
		}
	}
	return fresh
}

// listGraph is the list-order graph of a history: a node per element of a
// returned list, an edge a → b for every adjacent pair a, b of a returned
// list, and the graph's strongly connected components. Identical lists give
// identical edges and are compatible with each other, so one event per
// distinct list (by element identity) stands for all of them.
type listGraph struct {
	reps  []core.Event // one event per distinct returned list
	seqs  [][]int32    // reps[i].Returned as node numbers
	elems []opid.OpID  // node number → element
	comp  []int32      // node number → strongly connected component
	size  []int32      // component → number of elements
}

// newListGraph builds the graph of h's returned lists and its components.
func newListGraph(h *core.History) *listGraph {
	g := &listGraph{}
	last := make(map[uint64]int32) // hash of a list's identities → its latest rep
	var prev []int32               // rep → the previous rep with its hash, or -1
	num := make(map[opid.OpID]int32)
	for _, e := range h.Events {
		k := uint64(len(e.Returned))
		for _, el := range e.Returned {
			k = (k ^ el.ID.Hash()) * 0x100000001B3
		}
		r, ok := last[k]
		if !ok {
			r = -1
		}
		head := r
		for r >= 0 && !slices.EqualFunc(g.reps[r].Returned, e.Returned, func(x, y list.Elem) bool { return x.ID == y.ID }) {
			r = prev[r]
		}
		if r >= 0 {
			continue
		}
		last[k], prev = int32(len(g.reps)), append(prev, head)
		g.reps = append(g.reps, e)
		seq := make([]int32, len(e.Returned))
		for j, el := range e.Returned {
			n, ok := num[el.ID]
			if !ok {
				n = int32(len(g.elems))
				num[el.ID] = n
				g.elems = append(g.elems, el.ID)
			}
			seq[j] = n
		}
		g.seqs = append(g.seqs, seq)
	}
	g.components()
	return g
}

// components numbers the strongly connected components with one iterative
// pass of Tarjan's algorithm over the adjacent pairs, laid out per node.
func (g *listGraph) components() {
	n := int32(len(g.elems))
	off := make([]int32, n+1) // node v's successors are adj[off[v]:off[v+1]]
	for _, s := range g.seqs {
		for k := 1; k < len(s); k++ {
			off[s[k-1]+1]++
		}
	}
	for v := int32(0); v < n; v++ {
		off[v+1] += off[v]
	}
	adj, next := make([]int32, off[n]), slices.Clone(off[:n])
	for _, s := range g.seqs {
		for k := 1; k < len(s); k++ {
			adj[next[s[k-1]]] = s[k]
			next[s[k-1]]++
		}
	}
	copy(next, off[:n]) // now each node's next edge to walk

	index, low := make([]int32, n), make([]int32, n) // DFS number from 1; 0 = unvisited
	g.comp = make([]int32, n)                        // -1 while on the stack
	var stack, call []int32
	counter := int32(0)
	visit := func(v int32) {
		counter++
		index[v], low[v], g.comp[v] = counter, counter, -1
		stack, call = append(stack, v), append(call, v)
	}
	for root := int32(0); root < n; root++ {
		if index[root] == 0 {
			visit(root)
		}
		for len(call) > 0 {
			v := call[len(call)-1]
			if next[v] < off[v+1] {
				w := adj[next[v]]
				next[v]++
				if index[w] == 0 {
					visit(w)
				} else if g.comp[w] < 0 {
					low[v] = min(low[v], index[w])
				}
				continue
			}
			if call = call[:len(call)-1]; len(call) > 0 {
				p := call[len(call)-1]
				low[p] = min(low[p], low[v])
			}
			if low[v] == index[v] {
				i := len(stack) - 1
				for stack[i] != v {
					i--
				}
				for _, w := range stack[i:] {
					g.comp[w] = int32(len(g.size))
				}
				g.size = append(g.size, int32(len(stack)-i))
				stack = stack[:i]
			}
		}
	}
}

// checkAcyclic reports the strong list specification's violation if some
// component holds more than one element.
func (g *listGraph) checkAcyclic() error {
	for v, c := range g.comp {
		if g.size[c] > 1 {
			return &Violation{
				Spec:   StrongList,
				Reason: fmt.Sprintf("the list order has a cycle through element %s: no total order lo exists", g.elems[v]),
			}
		}
	}
	return nil
}

// checkCompatible verifies condition 2 of the weak list specification: on
// every component of two or more elements, the distinct projections of the
// returned lists are pairwise compatible (see CheckWeak).
func (g *listGraph) checkCompatible() error {
	type projection struct {
		rep int     // the first list with this projection
		seq []int32 // its elements in the component, in order
	}
	projs := make([][]projection, len(g.size)) // component → its distinct projections
	cur := make([][]int32, len(g.size))        // component → the current list's projection
	seen := make(map[string]bool)              // projections as bytes; each names its component
	var touched []int32
	var key []byte
	for i, s := range g.seqs {
		for _, x := range s {
			if c := g.comp[x]; g.size[c] > 1 {
				if len(cur[c]) == 0 {
					touched = append(touched, c)
				}
				cur[c] = append(cur[c], x)
			}
		}
		for _, c := range touched {
			key = key[:0]
			for _, x := range cur[c] {
				key = binary.LittleEndian.AppendUint32(key, uint32(x))
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				projs[c] = append(projs[c], projection{i, slices.Clone(cur[c])})
			}
			cur[c] = cur[c][:0]
		}
		touched = touched[:0]
	}

	pos := make([]int32, len(g.elems)) // 1-based position in projection p; 0 = absent
	for _, ps := range projs {
		for i, p := range ps {
			for k, x := range p.seq {
				pos[x] = int32(k + 1)
			}
			for _, q := range ps[i+1:] {
				last := int32(0)
				for _, x := range q.seq {
					if pos[x] == 0 {
						continue
					}
					if pos[x] <= last {
						a, b := g.reps[p.rep], g.reps[q.rep]
						return &Violation{
							Spec: WeakList,
							Reason: fmt.Sprintf("incompatible returned lists %q and %q",
								list.Render(a.Returned), list.Render(b.Returned)),
							Events: []core.Event{a, b},
						}
					}
					last = pos[x]
				}
			}
			for _, x := range p.seq {
				pos[x] = 0
			}
		}
	}
	return nil
}
