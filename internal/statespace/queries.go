package statespace

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"unsafe"

	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// Render produces a deterministic multi-line textual form of the space:
// every state (in canonical order) with its ordered outgoing transitions.
// Two spaces render identically iff they are structurally identical,
// including sibling order — this is the executable form of Proposition 6.6's
// "the same n-ary ordered state-space".
func (s *Space) Render() string {
	var b strings.Builder
	for _, st := range s.sortedStates() {
		fmt.Fprintf(&b, "%s:", st)
		for _, e := range st.edges {
			fmt.Fprintf(&b, " [%s -> %s]", e.Op, e.To)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fingerprint hashes Render; equal fingerprints mean structurally equal
// spaces. Used by the Proposition 6.6 and equivalence tests, and by the E1
// experiment.
func (s *Space) Fingerprint() uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s.Render()))
	return h.Sum64()
}

// Dot renders the space in Graphviz dot syntax (used by cmd/ssviz).
func (s *Space) Dot() string {
	var b strings.Builder
	b.WriteString("digraph statespace {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")
	label := func(st *State) string {
		if d := st.Doc(); d != nil {
			return fmt.Sprintf("%s\\n%q", st, d.String())
		}
		return st.String()
	}
	for _, st := range s.sortedStates() {
		fmt.Fprintf(&b, "  %q [label=%q];\n", st.Key(), label(st))
		for i, e := range st.edges {
			fmt.Fprintf(&b, "  %q -> %q [label=%q, taillabel=\"%d\"];\n", st.Key(), e.To.Key(), e.Op.String(), i)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// ancestors returns every state from which st is reachable, including st.
func (s *Space) ancestors(st *State) map[*State]struct{} {
	seen := map[*State]struct{}{st: {}}
	queue := []*State{st}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range cur.parents {
			if _, ok := seen[p.From]; !ok {
				seen[p.From] = struct{}{}
				queue = append(queue, p.From)
			}
		}
	}
	return seen
}

// LCA returns the unique lowest common ancestor of a and b (Lemma 8.4): a
// common ancestor c is lowest if no strict descendant of c is also a common
// ancestor. Lemma 8.4 proves uniqueness for CSS-built spaces; for hand-built
// spaces (e.g. Figure 8) multiple lowest common ancestors may exist, in
// which case ErrAmbiguousLCA is returned together with the candidates.
func (s *Space) LCA(a, b *State) (*State, []*State, error) {
	ancA := s.ancestors(a)
	ancB := s.ancestors(b)
	var common []*State
	for st := range ancA {
		if _, ok := ancB[st]; ok {
			common = append(common, st)
		}
	}
	if len(common) == 0 {
		return nil, nil, fmt.Errorf("statespace: no common ancestor of %s and %s", a, b)
	}
	// A common ancestor is lowest iff no other common ancestor is its strict
	// descendant. Descendant(x, y) iff x ∈ ancestors(y).
	var lowest []*State
	for _, c := range common {
		anc := s.ancestors(c)
		isLowest := true
		for _, d := range common {
			if d == c {
				continue
			}
			if _, ok := anc[d]; ok {
				continue // d is an ancestor of c: fine.
			}
			// d is not an ancestor of c; is c an ancestor of d?
			if _, ok := s.ancestors(d)[c]; ok {
				isLowest = false
				break
			}
			// c and d incomparable: both may be lowest (the ambiguous case).
		}
		if isLowest {
			lowest = append(lowest, c)
		}
	}
	sort.Slice(lowest, func(i, j int) bool { return lowest[i].Key() < lowest[j].Key() })
	if len(lowest) != 1 {
		return nil, lowest, fmt.Errorf("%w: %s and %s have %d lowest common ancestors", ErrAmbiguousLCA, a, b, len(lowest))
	}
	return lowest[0], lowest, nil
}

// APath returns one path (its edges) from src to dst, or nil if dst is not
// reachable from src.
func (s *Space) APath(src, dst *State) []*Edge {
	if src == dst {
		return []*Edge{}
	}
	type item struct {
		st   *State
		path []*Edge
	}
	seen := map[*State]struct{}{src: {}}
	queue := []item{{st: src}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.st.edges {
			if _, ok := seen[e.To]; ok {
				continue
			}
			next := append(append([]*Edge{}, cur.path...), e)
			if e.To == dst {
				return next
			}
			seen[e.To] = struct{}{}
			queue = append(queue, item{st: e.To, path: next})
		}
	}
	return nil
}

// PathOps maps a path to the set of ORIGINAL operations along it.
func PathOps(path []*Edge) opid.Set {
	out := make(opid.Set, len(path))
	for _, e := range path {
		out[e.Op.ID] = struct{}{}
	}
	return out
}

// IsSimplePath reports whether the path repeats no original operation
// (Lemma 6.3: every path in a CSS space is simple).
func IsSimplePath(path []*Edge) bool {
	return len(PathOps(path)) == len(path)
}

// DisjointPaths reports whether two paths share no original operation
// (Lemma 8.5: paths from the unique LCA to the two states are disjoint).
func DisjointPaths(p1, p2 []*Edge) bool {
	ops := PathOps(p1)
	for _, e := range p2 {
		if ops.Contains(e.Op.ID) {
			return false
		}
	}
	return true
}

// Compatible reports whether the documents of two states are compatible
// (Definition 8.2). Requires WithDocs.
func (s *Space) Compatible(a, b *State) (bool, error) {
	da, db := a.Doc(), b.Doc()
	if da == nil || db == nil {
		return false, fmt.Errorf("statespace: Compatible requires WithDocs")
	}
	return list.Compatible(da.Elems(), db.Elems()), nil
}

// CheckPairwiseCompatibility verifies Theorem 8.7: every pair of states in
// the space holds compatible documents. Requires WithDocs. Returns a
// descriptive error naming the first incompatible pair.
func (s *Space) CheckPairwiseCompatibility() error {
	states := s.sortedStates()
	for i := 0; i < len(states); i++ {
		for j := i + 1; j < len(states); j++ {
			ok, err := s.Compatible(states[i], states[j])
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("statespace: states %s (%q) and %s (%q) are incompatible",
					states[i], states[i].Doc().String(), states[j], states[j].Doc().String())
			}
		}
	}
	return nil
}

// CheckInvariants verifies the structural lemmas of Section 6.3 on the
// whole space, for a system of n clients:
//
//   - Lemma 6.1: every state has at most n children;
//   - sibling transitions are strictly ordered and pairwise-concurrent
//     (distinct original operations, none in another's path);
//   - Lemma 6.3: every root-to-state path is simple;
//   - state identity: an edge from σ labeled o leads exactly to σ∪{o},
//     checked against the lazily materialized sets AND the interned
//     incremental identities (depth, hash), so the two representations are
//     verified against each other;
//   - Lemma 8.4: every pair of states has a unique LCA (checked when
//     checkLCA is true — quadratic, so optional).
func (s *Space) CheckInvariants(n int, checkLCA bool) error {
	for _, st := range s.byID {
		if st == nil {
			continue
		}
		ops := st.Ops()
		if len(ops) != st.depth {
			return fmt.Errorf("statespace: state %s depth %d disagrees with |ops| %d", st, st.depth, len(ops))
		}
		if ops.Hash() != st.hash {
			return fmt.Errorf("statespace: state %s interned hash disagrees with set hash", st)
		}
		if len(st.edges) > n {
			return fmt.Errorf("statespace: state %s has %d children, n=%d (Lemma 6.1)", st, len(st.edges), n)
		}
		for i, e := range st.edges {
			want := ops.Add(e.Op.ID)
			if !want.Equal(e.To.Ops()) {
				return fmt.Errorf("statespace: edge %s leads to %s, want %s", e, e.To, want)
			}
			if ops.Contains(e.Op.ID) {
				return fmt.Errorf("statespace: edge %s repeats op already in source state", e)
			}
			if i > 0 && !edgeLess(st.edges[i-1], e) {
				return fmt.Errorf("statespace: siblings out of order at %s: %s !< %s", st, st.edges[i-1].Op, e.Op)
			}
		}
	}
	// Simple paths: since each edge adds exactly one op (checked above) and
	// state sets grow along edges, all paths are automatically simple; we
	// additionally verify reachability bookkeeping.
	if int(s.final.id) >= len(s.byID) || s.byID[s.final.id] != s.final {
		return fmt.Errorf("statespace: final state %s not registered", s.final)
	}
	if checkLCA {
		states := s.sortedStates()
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				if _, _, err := s.LCA(states[i], states[j]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sortedStates returns all states in canonical key order.
func (s *Space) sortedStates() []*State {
	states := make([]*State, 0, s.numStates)
	for _, st := range s.byID {
		if st != nil {
			states = append(states, st)
		}
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Key() < states[j].Key() })
	return states
}

// States returns all states in canonical key order (copy).
func (s *Space) States() []*State {
	return s.sortedStates()
}

// ByteSize is the heap the space holds, in bytes: every state with its edge
// and parent slices, materialized base set and side struct; every edge and
// order-key cell; and the dense, intern and order-key indexes. Struct sizes
// come from unsafe.Sizeof, and a hash-table entry counts 1.5× its key,
// value and control byte (the mean load of Go's tables between growths).
// The simulator's space statistics report it; TestByteSizeTracksHeap holds
// it to the heap a CSS run measures.
func (s *Space) ByteSize() int {
	const ptr = int(unsafe.Sizeof(uintptr(0)))
	mapEntry := func(kv int) int { return (kv + 1) * 3 / 2 }
	opID := int(unsafe.Sizeof(opid.OpID{}))
	total := cap(s.byID)*ptr + len(s.byHash)*mapEntry(8+ptr) + len(s.orderOf)*(mapEntry(opID+ptr)+8)
	for _, st := range s.byID {
		if st == nil {
			continue
		}
		total += int(unsafe.Sizeof(*st)) + (cap(st.edges)+cap(st.parents))*ptr +
			len(st.edges)*int(unsafe.Sizeof(Edge{})) + len(st.base)*mapEntry(opID)
		if x := st.x; x != nil {
			total += int(unsafe.Sizeof(*x)) + len(x.key)
			if x.doc != nil {
				total += x.doc.Len() * int(unsafe.Sizeof(list.Elem{}))
			}
		}
	}
	return total
}

// Builder constructs arbitrary state-spaces by hand. It exists for tests and
// counterexamples: Figure 8's space is NOT producible by the CSS protocol
// (it is the union of two clients' spaces from an incorrect protocol), yet
// the paper's Examples 8.2–8.4 reason about it; the Builder lets tests do
// the same.
type Builder struct {
	space *Space
	err   error
}

// NewBuilder starts a builder over an initial document.
func NewBuilder(initialDoc list.Doc) *Builder {
	s := New(initialDoc, WithDocs())
	s.relaxed = true
	return &Builder{space: s}
}

// Edge adds a transition from the state identified by `from` labeled with
// op and order key. The destination state (from ∪ {op.ID}) is created if
// needed; if it exists the edge converges on it (allowed in hand-built
// spaces). The destination document is derived from the source unless the
// destination already exists. All edges of one operation share its order
// key, so an edge whose key differs from an earlier edge's of the same
// operation is an error.
func (b *Builder) Edge(from opid.Set, op ot.Op, key OrderKey) *Builder {
	return b.EdgeTagged(from, "", op, key, "")
}

// EdgeTagged is Edge with state disambiguation tags. A tagged state is
// identified by (operation set, tag), which lets a hand-built space hold
// several distinct states over the same operation set — the situation of
// Figure 8, where an incorrect protocol produces two different states
// {1,2,3}, one holding "ayxc" and one holding "axyc". The CSS protocol can
// never produce such a space (Proposition 6.6); the tags participate in the
// interned identity (they are mixed into the intern hash) so tests can
// reproduce the paper's counterexamples.
func (b *Builder) EdgeTagged(from opid.Set, fromTag string, op ot.Op, key OrderKey, toTag string) *Builder {
	if b.err != nil {
		return b
	}
	s := b.space
	src, ok := s.lookup(from, fromTag)
	if !ok {
		b.err = fmt.Errorf("builder: unknown source state %s tag %q", from, fromTag)
		return b
	}
	cell, err := s.keyCell(op.ID, key)
	if err != nil {
		b.err = fmt.Errorf("builder: %w", err)
		return b
	}
	destOps := from.Add(op.ID)
	dst, exists := s.lookup(destOps, toTag)
	if !exists {
		d := src.Doc().Clone()
		if err := ot.Apply(d, op); err != nil {
			b.err = fmt.Errorf("builder: apply %s at %s: %w", op, src, err)
			return b
		}
		dst = &State{base: destOps, hash: destOps.Hash(), depth: len(destOps), x: &stateExtra{tag: toTag, doc: d}}
		s.intern(dst)
	}
	if err := s.linkEdge(src, dst, op, cell); err != nil {
		b.err = err
		return b
	}
	if dst.depth > s.final.depth {
		s.final = dst
	}
	return b
}

// State returns the built state identified by the operation set and tag.
func (b *Builder) State(ops opid.Set, tag string) (*State, bool) {
	return b.space.lookup(ops, tag)
}

// Build returns the constructed space or the first error encountered.
func (b *Builder) Build() (*Space, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.space, nil
}
