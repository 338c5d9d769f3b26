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
	states, _ := s.sortedStates()
	for _, st := range states {
		fmt.Fprintf(&b, "%s:", st)
		for e := s.states.at(st.i).out; e != none; e = s.edges.at(e).sib {
			fmt.Fprintf(&b, " [%s -> %s]", s.label(e), s.handle(s.edges.at(e).to))
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
	label := func(st State) string {
		if d := st.Doc(); d != nil {
			return fmt.Sprintf("%s\\n%q", st, d.String())
		}
		return st.String()
	}
	states, keys := s.sortedStates()
	for _, st := range states {
		fmt.Fprintf(&b, "  %q [label=%q];\n", keys[st.i], label(st))
		for i, e := range st.Edges() {
			fmt.Fprintf(&b, "  %q -> %q [label=%q, taillabel=\"%d\"];\n", keys[st.i], keys[e.To.i], e.Op.String(), i)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// ancestors returns every state from which st is reachable, including st.
func (s *Space) ancestors(st State) map[State]struct{} {
	seen := map[State]struct{}{st: {}}
	queue := []int32{st.i}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for e := s.states.at(cur).in; e != none; e = s.edges.at(e).par {
			from := s.edges.at(e).from
			if _, ok := seen[s.handle(from)]; !ok {
				seen[s.handle(from)] = struct{}{}
				queue = append(queue, from)
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
func (s *Space) LCA(a, b State) (State, []State, error) {
	ancA := s.ancestors(a)
	ancB := s.ancestors(b)
	var common []State
	for st := range ancA {
		if _, ok := ancB[st]; ok {
			common = append(common, st)
		}
	}
	if len(common) == 0 {
		return State{}, nil, fmt.Errorf("statespace: no common ancestor of %s and %s", a, b)
	}
	// A common ancestor is lowest iff no other common ancestor is its strict
	// descendant. Descendant(x, y) iff x ∈ ancestors(y).
	var lowest []State
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
	keys := make(map[State]string, len(lowest))
	for _, st := range lowest {
		keys[st] = st.Key()
	}
	sort.Slice(lowest, func(i, j int) bool { return keys[lowest[i]] < keys[lowest[j]] })
	if len(lowest) != 1 {
		return State{}, lowest, fmt.Errorf("%w: %s and %s have %d lowest common ancestors", ErrAmbiguousLCA, a, b, len(lowest))
	}
	return lowest[0], lowest, nil
}

// APath returns one path (its edges) from src to dst, or nil if dst is not
// reachable from src.
func (s *Space) APath(src, dst State) []Edge {
	if src == dst {
		return []Edge{}
	}
	type item struct {
		st   State
		path []Edge
	}
	seen := map[State]struct{}{src: {}}
	queue := []item{{st: src}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.st.Edges() {
			if _, ok := seen[e.To]; ok {
				continue
			}
			next := append(append([]Edge{}, cur.path...), e)
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
func PathOps(path []Edge) opid.Set {
	out := make(opid.Set, len(path))
	for _, e := range path {
		out[e.Op.ID] = struct{}{}
	}
	return out
}

// IsSimplePath reports whether the path repeats no original operation
// (Lemma 6.3: every path in a CSS space is simple).
func IsSimplePath(path []Edge) bool {
	return len(PathOps(path)) == len(path)
}

// DisjointPaths reports whether two paths share no original operation
// (Lemma 8.5: paths from the unique LCA to the two states are disjoint).
func DisjointPaths(p1, p2 []Edge) bool {
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
func (s *Space) Compatible(a, b State) (bool, error) {
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
	states, _ := s.sortedStates()
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
	incoming := 0
	for i := int32(0); i < s.states.n; i++ {
		st, r := s.handle(i), s.states.at(i)
		ops := st.Ops()
		if len(ops) != int(r.depth) {
			return fmt.Errorf("statespace: state %s depth %d disagrees with |ops| %d", st, r.depth, len(ops))
		}
		if ops.Hash() != r.hash {
			return fmt.Errorf("statespace: state %s interned hash disagrees with set hash", st)
		}
		if got, ok := s.lookup(ops, s.tag(i)); !ok || got != i {
			return fmt.Errorf("statespace: state %s does not resolve to itself", st)
		}
		children := 0
		for e, prev := r.out, none; e != none; prev, e = e, s.edges.at(e).sib {
			ed := s.edge(e)
			want := ops.Add(ed.Op.ID)
			if !want.Equal(ed.To.Ops()) {
				return fmt.Errorf("statespace: edge %s leads to %s, want %s", ed, ed.To, want)
			}
			if ops.Contains(ed.Op.ID) {
				return fmt.Errorf("statespace: edge %s repeats op already in source state", ed)
			}
			if prev != none && !s.edgeLess(prev, e) {
				return fmt.Errorf("statespace: siblings out of order at %s: %s !< %s", st, s.label(prev), ed.Op)
			}
			children++
		}
		if children > n {
			return fmt.Errorf("statespace: state %s has %d children, n=%d (Lemma 6.1)", st, children, n)
		}
		for e := r.in; e != none; e = s.edges.at(e).par {
			if s.edges.at(e).to != i {
				return fmt.Errorf("statespace: state %s lists an incoming edge of another state", st)
			}
			incoming++
		}
	}
	// Simple paths: since each edge adds exactly one op (checked above) and
	// state sets grow along edges, all paths are automatically simple; we
	// additionally verify the incoming lists and the final state.
	if s.final < 0 || s.final >= s.states.n {
		return fmt.Errorf("statespace: final state %d not registered", s.final)
	}
	if incoming != int(s.edges.n) {
		return fmt.Errorf("statespace: %d incoming edges listed, %d edges", incoming, s.edges.n)
	}
	if checkLCA {
		states, _ := s.sortedStates()
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

// sortedStates returns all states in canonical key order, and every
// state's key by state number. The keys are computed once for the call and
// not kept: the space holds no key it did not need to integrate.
func (s *Space) sortedStates() ([]State, []string) {
	states, keys := make([]State, s.states.n), make([]string, s.states.n)
	for i := range states {
		states[i], keys[i] = s.handle(int32(i)), s.key(int32(i))
	}
	sort.Slice(states, func(i, j int) bool { return keys[states[i].i] < keys[states[j].i] })
	return states, keys
}

// States returns all states in canonical key order (copy).
func (s *Space) States() []State {
	states, _ := s.sortedStates()
	return states
}

// Record sizes of the flat representation, in bytes.
const (
	StateBytes = int(unsafe.Sizeof(stateRec{}))
	EdgeBytes  = int(unsafe.Sizeof(edgeRec{}))
)

// ByteSize is the heap the space holds, in bytes: the allocated state,
// transition and operation-table chunks; the intern index and the
// operation → entry table; the path scratch; and every side table (base
// sets, odd labels, tags, documents). Record sizes come from
// unsafe.Sizeof, and a hash-table entry counts 1.5× its key, value and
// control byte (the mean load of Go's tables between growths). The
// simulator's space statistics report it; TestByteSizeTracksHeap holds it
// to the heap a CSS run measures.
func (s *Space) ByteSize() int {
	const i32 = 4
	mapEntry := func(kv int) int { return (kv + 1) * 3 / 2 }
	opID := int(unsafe.Sizeof(opid.OpID{}))
	str := int(unsafe.Sizeof(""))
	total := s.states.capacity()*StateBytes + s.edges.capacity()*EdgeBytes +
		s.ops.capacity()*int(unsafe.Sizeof(opRec{})) +
		(cap(s.states.c)+cap(s.edges.c)+cap(s.ops.c))*int(unsafe.Sizeof([]byte(nil))) +
		(len(s.buckets)+cap(s.pathBuf))*i32 + len(s.opIdx)*mapEntry(opID+i32) +
		len(s.odd)*mapEntry(i32+int(unsafe.Sizeof(ot.Op{})))
	for _, set := range s.base {
		total += mapEntry(i32+int(unsafe.Sizeof(set))) + len(set)*mapEntry(opID)
	}
	for _, t := range s.tags {
		total += mapEntry(i32+str) + len(t)
	}
	total += cap(s.docs) * int(unsafe.Sizeof(docRec{}))
	for _, d := range s.docs {
		if d.doc != nil {
			total += d.doc.Len() * int(unsafe.Sizeof(list.Elem{}))
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
	oi, err := s.opEntry(op, key)
	if err != nil {
		b.err = fmt.Errorf("builder: %w", err)
		return b
	}
	destOps := from.Add(op.ID)
	dst, exists := s.lookup(destOps, toTag)
	if !exists {
		d := s.doc(src).Clone()
		if err := ot.Apply(d, op); err != nil {
			b.err = fmt.Errorf("builder: apply %s at %s: %w", op, s.handle(src), err)
			return b
		}
		dst = s.newState(stateRec{hash: destOps.Hash(), depth: int32(len(destOps)), parent: none}, toTag)
		s.base[dst] = destOps
		s.docs[dst].doc = d
	}
	if err := s.linkEdge(src, dst, op, oi); err != nil {
		b.err = err
		return b
	}
	if s.states.at(dst).depth > s.states.at(s.final).depth {
		s.final = dst
	}
	return b
}

// State returns the built state identified by the operation set and tag.
func (b *Builder) State(ops opid.Set, tag string) (State, bool) {
	i, ok := b.space.lookup(ops, tag)
	if !ok {
		return State{}, false
	}
	return b.space.handle(i), true
}

// Build returns the constructed space or the first error encountered.
func (b *Builder) Build() (*Space, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.space, nil
}
