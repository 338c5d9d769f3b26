// Package statespace implements the n-ary ordered state-space, the novel
// data structure at the heart of the CSS Jupiter protocol (Section 6.1 of
// the paper), together with Algorithm 1 (OTs along the leftmost transitions)
// and the structural queries used by the paper's proofs: leftmost paths
// (Lemma 6.4), lowest common ancestors (Lemma 8.4), simple/disjoint paths
// (Lemmas 6.3 and 8.5), and state compatibility (Lemma 8.6, Theorem 8.7).
//
// A state σ is identified by the set of ORIGINAL operations a replica has
// processed to reach it; a transition is labeled with the (original or
// transformed) operation involved. A state may have up to n child states
// (Lemma 6.1, one per client), and the transitions leaving a state are
// totally ordered "according to the total order among operations established
// by the server".
//
// Interned state identities. Conceptually a state IS an operation set, but
// representing it as one makes Algorithm 1 quadratic in history length:
// every lookup would sort-and-stringify a set into a map key and every
// ladder rung would clone a context map. Instead each state carries an
// order-independent 64-bit set hash; a child's identity derives
// incrementally from its parent's (hash ^ added-op hash, O(1)), the intern
// index resolves an explicit set in O(|set|) with no allocation, and a child
// is found by scanning its parent's at most n transitions (Lemma 6.1). The
// operation set itself is materialized lazily by walking the creation-parent
// chain (State.Ops), so creating a state is O(1). Explicit sets remain the
// wire and specification format; they are resolved to interned states only
// at the message boundary.
//
// Flat records. A space holds no pointer per state or transition: a state
// is a 48-byte record (hash, added operation, depth, creation parent, first
// outgoing and first incoming transition, next state in its intern bucket)
// and a transition a 24-byte one (original operation and kind, position,
// from/to, next sibling, next incoming), each addressed by an int32 index
// into chunked storage that grows without copying (store.go). A transition's
// label is its original operation — kept once, with its order key, in a
// per-space operation table — with the kind and position a transformation
// changes. Materialized sets (the root's), builder tags and
// WithDocs documents sit in side tables that protocol-built spaces leave
// empty or absent. State and Edge are small values that refer into the
// space; a State is valid until the next CompactTo or UnmarshalJSON.
//
// Order keys. Every transition carries an order key: the server-assigned
// global sequence number of its underlying original operation, or
// PendingKey for a client's own not-yet-acknowledged operations. A pending
// operation is, by the FIFO argument of Section 6.2, totally ordered after
// every operation the client currently knows, so PendingKey sorts last;
// Promote installs the real key, in the operation's one table entry, when
// the server's acknowledgement arrives.
package statespace

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"

	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// OrderKey is the position of an original operation in the server's total
// order "⇒" (1-based), or PendingKey if not yet known.
type OrderKey uint64

// PendingKey marks a transition whose original operation has not yet been
// serialized by the server (a client's own in-flight operation).
const PendingKey OrderKey = math.MaxUint64

// StateID is the dense interned identity of a state within one Space. IDs
// are assigned in creation order; CompactTo and UnmarshalJSON renumber them.
type StateID uint32

// Errors reported by state-space operations.
var (
	// ErrNoMatchingState reports that an operation's context does not name a
	// state of the space — a protocol-level bug (Section 6.2 step 1 assumes
	// the matching state exists).
	ErrNoMatchingState = errors.New("statespace: no state matches operation context")
	// ErrDuplicateOp reports integrating the same original operation twice.
	ErrDuplicateOp = errors.New("statespace: operation already integrated")
	// ErrAmbiguousLCA reports that a pair of states has more than one lowest
	// common ancestor, which Lemma 8.4 proves impossible for spaces built by
	// the CSS protocol. It can (and does) occur for hand-built spaces such as
	// the Figure 8 counterexample.
	ErrAmbiguousLCA = errors.New("statespace: lowest common ancestor is not unique")
	// ErrForeignState reports passing a State to a space that does not own
	// it, or one from before the space's last CompactTo or UnmarshalJSON.
	ErrForeignState = errors.New("statespace: state belongs to a different space")
)

// State is a node of the state-space: a handle on its record. The zero
// State is no state.
type State struct {
	s   *Space
	i   int32
	gen uint32
}

// space returns the owning space, refusing a handle the space has since
// renumbered.
func (st State) space() *Space {
	if st.s == nil || st.gen != st.s.gen {
		panic("statespace: state handle used after CompactTo or UnmarshalJSON")
	}
	return st.s
}

// ID returns the state's dense interned identity within its space.
func (st State) ID() StateID { return StateID(st.i) }

// Len returns the size of the state's operation set without materializing it.
func (st State) Len() int { return int(st.space().states.at(st.i).depth) }

// Contains reports whether the state's operation set contains id, walking
// the creation-parent chain (O(depth), no allocation).
func (st State) Contains(id opid.OpID) bool { return st.space().contains(st.i, id) }

// Ops materializes the state's operation set by walking the creation-parent
// chain. The returned set is a fresh copy owned by the caller.
func (st State) Ops() opid.Set { return st.space().opsOf(st.i) }

// Edges returns the outgoing transitions in sibling order (leftmost first).
// For allocation-free iteration use EdgeCount/EdgeAt.
func (st State) Edges() []Edge {
	s := st.space()
	var out []Edge
	for e := s.states.at(st.i).out; e != none; e = s.edges.at(e).sib {
		out = append(out, s.edge(e))
	}
	return out
}

// EdgeCount returns the number of outgoing transitions.
func (st State) EdgeCount() int {
	s := st.space()
	n := 0
	for e := s.states.at(st.i).out; e != none; e = s.edges.at(e).sib {
		n++
	}
	return n
}

// EdgeAt returns the i-th outgoing transition in sibling order; it walks at
// most n siblings (Lemma 6.1).
func (st State) EdgeAt(i int) Edge {
	s := st.space()
	e := s.states.at(st.i).out
	for ; i > 0; i-- {
		e = s.edges.at(e).sib
	}
	if e == none {
		panic("statespace: EdgeAt index out of range")
	}
	return s.edge(e)
}

// Parents returns the incoming transitions, in no particular order.
func (st State) Parents() []Edge {
	s := st.space()
	var out []Edge
	for e := s.states.at(st.i).in; e != none; e = s.edges.at(e).par {
		out = append(out, s.edge(e))
	}
	return out
}

// Key returns the canonical string identity of the state (the sorted
// operation-set encoding, plus the builder tag if any). It is computed on
// every call and not kept; protocol hot paths never call it.
func (st State) Key() string { return st.space().key(st.i) }

// Doc returns the list value at this state, or nil when the space does not
// record documents (see WithDocs). Ladder-rung documents are derived lazily
// (copy-on-write): the first read clones the nearest materialized ancestor
// document and replays the transformed operations down to this state,
// caching every value on the way. Derivation failure panics — a transformed
// operation that cannot apply is a protocol bug, caught eagerly under
// WithCP1Check.
func (st State) Doc() list.Doc { return st.space().doc(st.i) }

// String renders the state as its operation set, e.g. "{c1:1,c3:1}".
func (st State) String() string { return st.Ops().String() }

// Edge is a transition of the state-space, labeled with an original or
// transformed operation: a value read out of the space.
type Edge struct {
	Op       ot.Op // the labeling operation (Op.ID is the original identity)
	From, To State

	opi int32 // Op.ID's operation-table entry, which holds the order key
}

// OrderKey returns the edge's current order key.
func (e Edge) OrderKey() OrderKey { return e.From.space().ops.at(e.opi).key }

// String renders the edge.
func (e Edge) String() string {
	return fmt.Sprintf("%s --%s--> %s", e.From, e.Op, e.To)
}

// docRec is a state's document under WithDocs: doc is the materialized
// value; when nil with parent set, the value derives lazily as parent's
// document + op (copy-on-write: ladder rungs cost nothing until read).
type docRec struct {
	doc    list.Doc
	parent int32
	op     ot.Op
}

// Space is an n-ary ordered state-space.
type Space struct {
	states  chunks[stateRec]
	edges   chunks[edgeRec]
	ops     chunks[opRec]
	opIdx   map[opid.OpID]int32 // integrated operation → its ops entry
	buckets []int32             // intern index: set hash (^ tag hash) → first state
	initial int32
	final   int32
	gen     uint32 // bumped whenever states are renumbered

	// Side tables, empty or nil unless something asks for them.
	base map[int32]opid.Set // materialized sets: roots and chain-less states
	odd  map[int32]ot.Op    // edge labels that are not (original, kind, pos)
	tags map[int32]string   // builder tags
	docs []docRec           // WithDocs: one per state

	pathBuf []int32 // reusable leftmostPath scratch (hot path, no allocs)

	recordDocs bool
	verifyCP1  bool
	// relaxed disables the duplicate-sibling check; only hand-built spaces
	// (Builder) set it, to represent structures a correct protocol cannot
	// produce (Figure 8).
	relaxed bool

	audit    bool
	auditLog []AuditEntry
}

// Option configures a Space.
type Option func(*Space)

// WithDocs makes the space maintain the list value at every state. Required
// for compatibility queries and the figure-exact scenario tests; costs
// memory proportional to states × document length (lazily, as states are
// read).
func WithDocs() Option {
	return func(s *Space) { s.recordDocs = true }
}

// WithCP1Check makes Algorithm 1 verify, at every ladder step, that both
// sides of the OT commutative square (Figure 1c) produce the same document.
// Implies WithDocs, materialized eagerly. Used by tests; too expensive for
// benchmarks.
func WithCP1Check() Option {
	return func(s *Space) { s.recordDocs = true; s.verifyCP1 = true }
}

// New creates a space containing only the initial state σ0 = {0}, whose
// document value is initialDoc (cloned; may be nil for an empty list).
func New(initialDoc list.Doc, opts ...Option) *Space {
	return NewAt(opid.NewSet(), initialDoc, opts...)
}

// NewAt creates a space rooted at a non-empty state: the root is identified
// by the given operation set (the operations a late-joining replica adopts
// wholesale from a snapshot) and holds initialDoc. Every operation in root
// is treated as already integrated, with order keys left unknown — which is
// safe because compacted-away operations can never appear as siblings again
// (the same contract as CompactTo).
func NewAt(root opid.Set, initialDoc list.Doc, opts ...Option) *Space {
	s := &Space{opIdx: make(map[opid.OpID]int32)}
	for _, opt := range opts {
		opt(s)
	}
	init := s.newState(stateRec{hash: root.Hash(), depth: int32(len(root)), parent: none}, "")
	s.base = map[int32]opid.Set{init: root.Clone()}
	if s.recordDocs {
		s.docs[init].doc = list.NewDocument()
		if initialDoc != nil {
			s.docs[init].doc = initialDoc.Clone()
		}
	}
	s.initial, s.final = init, init
	return s
}

// handle returns the State for index i.
func (s *Space) handle(i int32) State { return State{s: s, i: i, gen: s.gen} }

// own resolves a State to its index, if the space owns it.
func (s *Space) own(st State) (int32, bool) {
	return st.i, st.s == s && st.gen == s.gen && st.i >= 0 && st.i < s.states.n
}

// opID returns the identity of operation-table entry oi.
func (s *Space) opID(oi int32) opid.OpID { return s.ops.at(oi).op.ID }

// tag returns state i's builder tag ("" for protocol-built states).
func (s *Space) tag(i int32) string { return s.tags[i] }

// contains reports whether state i's operation set holds id.
func (s *Space) contains(i int32, id opid.OpID) bool {
	for r := s.states.at(i); r.parent != none; r = s.states.at(i) {
		if r.added == id {
			return true
		}
		i = r.parent
	}
	return s.base[i].Contains(id)
}

// opsOf materializes state i's operation set.
func (s *Space) opsOf(i int32) opid.Set {
	r := s.states.at(i)
	out := make(opid.Set, r.depth)
	for ; r.parent != none; r = s.states.at(i) {
		out[r.added] = struct{}{}
		i = r.parent
	}
	for k := range s.base[i] {
		out[k] = struct{}{}
	}
	return out
}

// equalsSet reports whether state i's operation set (and tag) equals ops.
// Every chain-added operation is distinct from the rest of its parent's set,
// so size equality plus membership of each chain/base element is equality.
func (s *Space) equalsSet(i int32, ops opid.Set, tag string) bool {
	return s.tag(i) == tag && int(s.states.at(i).depth) == len(ops) && s.subsetOf(i, ops)
}

// subsetOf reports whether state i's operation set is contained in ops.
func (s *Space) subsetOf(i int32, ops opid.Set) bool {
	for r := s.states.at(i); r.parent != none; r = s.states.at(i) {
		if !ops.Contains(r.added) {
			return false
		}
		i = r.parent
	}
	for k := range s.base[i] {
		if !ops.Contains(k) {
			return false
		}
	}
	return true
}

// key computes state i's Key.
func (s *Space) key(i int32) string {
	k := s.opsOf(i).Key()
	if t := s.tag(i); t != "" {
		k += "#" + t
	}
	return k
}

// doc derives state i's document (State.Doc).
func (s *Space) doc(i int32) list.Doc {
	if !s.recordDocs {
		return nil
	}
	if d := s.docs[i]; d.doc != nil || d.parent == none {
		return d.doc
	}
	// Walk up to the nearest materialized document, then replay downward.
	chain := []int32{i}
	cur := s.docs[i].parent
	for s.docs[cur].doc == nil && s.docs[cur].parent != none {
		chain = append(chain, cur)
		cur = s.docs[cur].parent
	}
	d := s.docs[cur].doc
	if d == nil {
		return nil
	}
	for k := len(chain) - 1; k >= 0; k-- {
		dr := &s.docs[chain[k]]
		nd := d.Clone()
		if err := ot.Apply(nd, dr.op); err != nil {
			panic(fmt.Sprintf("statespace: derive doc at %s via %s: %v", s.handle(chain[k]), dr.op, err))
		}
		dr.doc = nd
		d = nd
	}
	return d
}

// label returns the operation labeling edge e.
func (s *Space) label(e int32) ot.Op {
	r := s.edges.at(e)
	k := r.kind()
	if k == oddKind {
		return s.odd[e]
	}
	o := s.ops.at(r.op()).op
	if k == ot.KindNop {
		return ot.Nop(o.ID)
	}
	o.Kind, o.Pos = k, int(r.pos)
	return o
}

// edge reads edge e out of the space.
func (s *Space) edge(e int32) Edge {
	r := s.edges.at(e)
	return Edge{Op: s.label(e), From: s.handle(r.from), To: s.handle(r.to), opi: r.op()}
}

// tagHash mixes a builder tag into the intern index key (0 for untagged).
func tagHash(tag string) uint64 {
	if tag == "" {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(tag))
	return h.Sum64()
}

// The intern index holds at most two states per bucket on average; it
// starts at minBuckets (a power of two) and doubles.
const minBuckets = 8

// bucketsFor sizes the intern index for n states.
func bucketsFor(n int) int {
	return max(minBuckets, 1<<bits.Len(uint(n-1)/2))
}

// newState stores a state record (with no transitions yet) and interns it.
// The caller has already checked that no equal state exists.
func (s *Space) newState(r stateRec, tag string) int32 {
	r.out, r.in, r.next = none, none, none
	i := s.states.push(r)
	if tag != "" {
		if s.tags == nil {
			s.tags = make(map[int32]string)
		}
		s.tags[i] = tag
	}
	if s.recordDocs {
		s.docs = append(s.docs, docRec{parent: none})
	}
	if int(s.states.n) > 2*len(s.buckets) {
		s.rehash(max(2*len(s.buckets), minBuckets))
	} else {
		s.link(i)
	}
	return i
}

// rehash rebuilds the intern index with n buckets over every state.
func (s *Space) rehash(n int) {
	s.buckets = make([]int32, n)
	for b := range s.buckets {
		s.buckets[b] = none
	}
	for i := int32(0); i < s.states.n; i++ {
		s.link(i)
	}
}

// link threads state i into its intern bucket.
func (s *Space) link(i int32) {
	r := s.states.at(i)
	b := (r.hash ^ tagHash(s.tag(i))) & uint64(len(s.buckets)-1)
	r.next = s.buckets[b]
	s.buckets[b] = i
}

// lookup resolves an explicit operation set (and builder tag) to its
// interned state: one commutative hash pass plus, on a hash hit, an
// O(|ops|) chain-walk verification. No allocation.
func (s *Space) lookup(ops opid.Set, tag string) (int32, bool) {
	h := ops.Hash()
	for i := s.buckets[(h^tagHash(tag))&uint64(len(s.buckets)-1)]; i != none; {
		r := s.states.at(i)
		if r.hash == h && s.equalsSet(i, ops, tag) {
			return i, true
		}
		i = r.next
	}
	return none, false
}

// hashTaken reports whether an untagged state with set hash h may exist.
func (s *Space) hashTaken(h uint64) bool {
	for i := s.buckets[h&uint64(len(s.buckets)-1)]; i != none; {
		r := s.states.at(i)
		if r.hash == h {
			return true
		}
		i = r.next
	}
	return false
}

// Initial returns the initial state σ0.
func (s *Space) Initial() State { return s.handle(s.initial) }

// Final returns the current final state (the state whose operation set is
// everything the owning replica has processed).
func (s *Space) Final() State { return s.handle(s.final) }

// NumStates returns the number of states.
func (s *Space) NumStates() int { return int(s.states.n) }

// NumEdges returns the number of transitions.
func (s *Space) NumEdges() int { return int(s.edges.n) }

// StateOf returns the state identified by the given operation set, if any.
func (s *Space) StateOf(ops opid.Set) (State, bool) {
	i, ok := s.lookup(ops, "")
	if !ok {
		return State{}, false
	}
	return s.handle(i), true
}

// Child returns the state reached from parent by adding the given original
// operation: a scan of parent's outgoing transitions, at most n of them
// (Lemma 6.1).
func (s *Space) Child(parent State, id opid.OpID) (State, bool) {
	p, ok := s.own(parent)
	if !ok {
		return State{}, false
	}
	c, ok := s.child(p, id)
	if !ok {
		return State{}, false
	}
	return s.handle(c), true
}

func (s *Space) child(p int32, id opid.OpID) (int32, bool) {
	for e := s.states.at(p).out; e != none; {
		r := s.edges.at(e)
		if s.opID(r.op()) == id {
			return r.to, true
		}
		e = r.sib
	}
	return none, false
}

// OrderKeyOf returns the current order key of an integrated original
// operation (PendingKey if not yet promoted), and whether the operation is
// known to the space at all.
func (s *Space) OrderKeyOf(id opid.OpID) (OrderKey, bool) {
	oi, ok := s.opIdx[id]
	if !ok {
		return 0, false
	}
	return s.ops.at(oi).key, true
}

// Integrate performs the uniform operation processing of Section 6.2,
// steps 1–2, via Algorithm 1: it saves o (whose context is ctx) at the
// matching state, transforms it along the leftmost transitions to the final
// state, extends the space with the resulting "ladder" of transitions, and
// returns the fully transformed operation o{L} that the replica must
// execute (step 3).
//
// key is the operation's order key: the server-assigned global sequence
// number, or PendingKey for a locally generated operation.
func (s *Space) Integrate(o ot.Op, ctx opid.Set, key OrderKey) (ot.Op, error) {
	if _, dup := s.opIdx[o.ID]; dup {
		return ot.Op{}, fmt.Errorf("%w: %s", ErrDuplicateOp, o.ID)
	}
	sigma, ok := s.lookup(ctx, "")
	if !ok {
		return ot.Op{}, fmt.Errorf("%w: op %s ctx %s", ErrNoMatchingState, o, ctx)
	}
	return s.integrateAt(o, sigma, key)
}

// IntegrateAt is Integrate with an already-resolved matching state: replicas
// that track their context as an interned state (e.g. a client integrating a
// local operation at its own final state) skip set resolution entirely.
func (s *Space) IntegrateAt(o ot.Op, sigma State, key OrderKey) (ot.Op, error) {
	if _, dup := s.opIdx[o.ID]; dup {
		return ot.Op{}, fmt.Errorf("%w: %s", ErrDuplicateOp, o.ID)
	}
	i, ok := s.own(sigma)
	if !ok {
		return ot.Op{}, fmt.Errorf("%w: state %d", ErrForeignState, sigma.i)
	}
	return s.integrateAt(o, i, key)
}

func (s *Space) integrateAt(o ot.Op, sigma int32, key OrderKey) (ot.Op, error) {
	// Compute the leftmost path BEFORE adding o's transitions: the path runs
	// to the final state, which does not include o.
	path, err := s.leftmostPath(sigma)
	if err != nil {
		return ot.Op{}, fmt.Errorf("integrate %s: %w", o, err)
	}
	if s.audit {
		entry := AuditEntry{Op: o, Ctx: s.opsOf(sigma), Key: key, Path: make([]opid.OpID, len(path))}
		for i, e := range path {
			entry.Path[i] = s.opID(s.edges.at(e).op())
		}
		s.auditLog = append(s.auditLog, entry)
	}

	// Save o at σ along the transition of the right order (step 1). Every
	// transition o labels refers to its one operation-table entry.
	oi := s.ops.push(opRec{op: o, key: key})
	prev, err := s.addTransition(sigma, o, oi)
	if err != nil {
		return ot.Op{}, err
	}

	// Algorithm 1: iterate OTs along the leftmost path, arranging the new
	// transitions in their appropriate order (lines 3–5).
	cur := o
	for _, f := range path {
		fr := s.edges.at(f)
		fOp := s.label(f)
		fT := ot.Transform(fOp, cur) // f{o...}: the top op including o
		cur = ot.Transform(cur, fOp) // o{...f}: o including one more op

		ns, err := s.newChild(fr.to, oi)
		if err != nil {
			return ot.Op{}, err
		}
		// Vertical rung: from the existing state f.To, labeled with the
		// progressively transformed o.
		if err := s.linkEdge(fr.to, ns, cur, oi); err != nil {
			return ot.Op{}, err
		}
		// Horizontal rail: from the previous new state, labeled with f
		// transformed to include o; it shares f's operation entry.
		if err := s.linkEdge(prev, ns, fT, fr.op()); err != nil {
			return ot.Op{}, err
		}
		if s.recordDocs {
			if err := s.snapshotDoc(ns, fr.to, cur, prev, fT); err != nil {
				return ot.Op{}, err
			}
		}
		prev = ns
	}

	// Register the operation only now: a failed integration (no matching
	// state, stuck leftmost path) must leave the space able to retry the
	// same operation rather than reporting ErrDuplicateOp forever.
	s.opIdx[o.ID] = oi
	s.final = prev
	return cur, nil
}

// snapshotDoc records the document at the fresh ladder state ns: lazily
// (copy-on-write via State.Doc) in plain WithDocs mode, eagerly under CP1
// checking, where both sides of the commutative square (vertical parent top
// via vop, horizontal parent prevNew via hop) are computed and compared.
func (s *Space) snapshotDoc(ns, top int32, vop ot.Op, prevNew int32, hop ot.Op) error {
	s.docs[ns] = docRec{parent: top, op: vop}
	if !s.verifyCP1 {
		return nil
	}
	d := s.doc(top).Clone()
	if err := ot.Apply(d, vop); err != nil {
		return fmt.Errorf("statespace: snapshot via %s: %w", vop, err)
	}
	s.docs[ns].doc = d
	d2 := s.doc(prevNew).Clone()
	if err := ot.Apply(d2, hop); err != nil {
		return fmt.Errorf("statespace: cp1 side via %s: %w", hop, err)
	}
	if !list.ElemsEqual(d.Elems(), d2.Elems()) {
		return fmt.Errorf("statespace: CP1 square broken at %s: %q vs %q", s.handle(ns), d.String(), d2.String())
	}
	return nil
}

// addTransition creates the state σ∪{o} and links σ to it with o, placed in
// sibling order; the new state's document is derived when docs are recorded.
func (s *Space) addTransition(sigma int32, o ot.Op, oi int32) (int32, error) {
	ns, err := s.newChild(sigma, oi)
	if err != nil {
		return none, err
	}
	if err := s.linkEdge(sigma, ns, o, oi); err != nil {
		return none, err
	}
	if s.recordDocs {
		s.docs[ns] = docRec{parent: sigma, op: o}
		if s.verifyCP1 {
			d := s.doc(sigma).Clone()
			if err := ot.Apply(d, o); err != nil {
				return none, fmt.Errorf("statespace: apply %s at %s: %w", o, s.handle(sigma), err)
			}
			s.docs[ns].doc = d
		}
	}
	return ns, nil
}

// newChild stores a fresh state for parent's set extended with operation
// entry added, in O(1): the identity hash derives incrementally from the
// parent's. Ladder states are always new — the integrated operation is new
// to this replica, so no existing state's set can contain it; a scan of
// parent's at most n transitions and the intern index enforce that.
func (s *Space) newChild(parent, added int32) (int32, error) {
	id := s.opID(added)
	if dup, ok := s.child(parent, id); ok {
		return none, fmt.Errorf("statespace: state %s unexpectedly exists", s.handle(dup))
	}
	p := s.states.at(parent)
	hash := p.hash ^ id.Hash()
	if s.hashTaken(hash) {
		// Hash occupied: either a genuine duplicate (error) or an
		// astronomically unlikely collision — disambiguate exactly.
		ops := s.opsOf(parent)
		ops.Put(id)
		if dup, ok := s.lookup(ops, ""); ok {
			return none, fmt.Errorf("statespace: state %s unexpectedly exists", s.handle(dup))
		}
	}
	return s.newState(stateRec{hash: hash, depth: p.depth + 1, parent: parent, added: id}, ""), nil
}

// newEdge stores the transition from→to labeled op (of operation entry oi),
// not yet linked into any list. The label is packed as (kind, pos) when
// that reproduces it from the entry, and kept in the odd table otherwise.
func (s *Space) newEdge(from, to int32, op ot.Op, oi int32) int32 {
	o := s.ops.at(oi).op
	if op.Kind == ot.KindNop {
		o = ot.Nop(o.ID)
	} else {
		o.Kind, o.Pos = op.Kind, op.Pos
	}
	packed := o == op && op.Kind != oddKind && op.Kind < 1<<kindBits && int(int32(op.Pos)) == op.Pos
	r := edgeRec{ref: uint32(oi) << kindBits, from: from, to: to, sib: none, par: none}
	if packed {
		r.ref |= uint32(op.Kind)
		r.pos = int32(op.Pos)
	}
	e := s.edges.push(r)
	if !packed {
		if s.odd == nil {
			s.odd = make(map[int32]ot.Op)
		}
		s.odd[e] = op
	}
	return e
}

// linkEdge inserts the transition from→to labeled op at its ordered sibling
// position. Sibling operations are pairwise concurrent and distinct, so
// order keys plus the identity tie-break give a strict order.
func (s *Space) linkEdge(from, to int32, op ot.Op, oi int32) error {
	fr := s.states.at(from)
	if !s.relaxed {
		for e := fr.out; e != none; e = s.edges.at(e).sib {
			if s.opID(s.edges.at(e).op()) == op.ID {
				return fmt.Errorf("statespace: duplicate sibling for %s at %s", op.ID, s.handle(from))
			}
		}
	}
	e := s.newEdge(from, to, op, oi)
	r := s.edges.at(e)
	prev := none
	for cur := fr.out; cur != none && !s.edgeLess(e, cur); cur = s.edges.at(cur).sib {
		prev = cur
	}
	if prev == none {
		r.sib, fr.out = fr.out, e
	} else {
		pr := s.edges.at(prev)
		r.sib, pr.sib = pr.sib, e
	}
	tr := s.states.at(to)
	r.par, tr.in = tr.in, e
	return nil
}

// edgeLess orders sibling transitions: by order key, then (only between two
// pending operations, which a correct protocol never produces as siblings)
// by identity for determinism.
func (s *Space) edgeLess(a, b int32) bool {
	oa, ob := s.ops.at(s.edges.at(a).op()), s.ops.at(s.edges.at(b).op())
	if oa.key != ob.key {
		return oa.key < ob.key
	}
	return oa.op.ID.Less(ob.op.ID)
}

// Promote installs the server-assigned order key for an operation that was
// integrated as pending. All transitions labeled by the operation share its
// table entry, so one store re-keys them. Sibling orders never change: by
// the FIFO argument in the package comment, every sibling placed while the
// operation was pending already has a smaller key.
func (s *Space) Promote(id opid.OpID, key OrderKey) error {
	oi, ok := s.opIdx[id]
	if !ok {
		return fmt.Errorf("statespace: promote unknown op %s", id)
	}
	r := s.ops.at(oi)
	if r.key != PendingKey {
		if r.key == key {
			return nil
		}
		return fmt.Errorf("statespace: op %s already has key %d, cannot re-key to %d", id, r.key, key)
	}
	r.key = key
	return nil
}

// opEntry returns op's operation-table entry, registering one that holds op
// and key if op.ID is new. All edges of an operation share its entry, so an
// edge whose key disagrees with the operation's is refused rather than
// re-keyed.
func (s *Space) opEntry(op ot.Op, key OrderKey) (int32, error) {
	oi, ok := s.opIdx[op.ID]
	if !ok {
		oi = s.ops.push(opRec{op: op, key: key})
		s.opIdx[op.ID] = oi
	} else if k := s.ops.at(oi).key; k != key {
		return none, fmt.Errorf("statespace: edge of %s has order key %d, the operation has %d", op.ID, key, k)
	}
	return oi, nil
}

// leftmostPath returns the transitions along the leftmost path from st to
// the final state. By Lemma 6.4 the path exists and carries exactly the
// operations of O \ σ in total order. The returned slice aliases the
// space's reusable scratch buffer: it is valid until the next Integrate.
func (s *Space) leftmostPath(st int32) ([]int32, error) {
	path := s.pathBuf[:0]
	for cur := st; cur != s.final; {
		e := s.states.at(cur).out
		if e == none {
			return nil, fmt.Errorf("statespace: leftmost path from %s stuck at %s before final %s",
				s.handle(st), s.handle(cur), s.handle(s.final))
		}
		path = append(path, e)
		cur = s.edges.at(e).to
		if len(path) > int(s.states.n) {
			return nil, fmt.Errorf("statespace: leftmost path from %s exceeds state count (cycle?)", s.handle(st))
		}
	}
	s.pathBuf = path
	return path, nil
}

// LeftmostPath exposes the leftmost path from st to the final state for
// tests and tools (Lemma 6.4). The returned slice is the caller's.
func (s *Space) LeftmostPath(st State) ([]Edge, error) {
	i, ok := s.own(st)
	if !ok {
		return nil, ErrForeignState
	}
	path, err := s.leftmostPath(i)
	if err != nil {
		return nil, err
	}
	out := make([]Edge, len(path))
	for k, e := range path {
		out[k] = s.edge(e)
	}
	return out, nil
}

// AuditEntry records one Integrate call: the original operation, its
// context, the order key, and the ORIGINAL identities of the operations it
// was transformed with (the sequence L of Algorithm 1, in order).
type AuditEntry struct {
	Op   ot.Op
	Ctx  opid.Set
	Key  OrderKey
	Path []opid.OpID
}

// EnableAudit turns on integration auditing; entries accumulate until
// collected with AuditLog. Tests use this to check Lemmas 5.1/6.5 directly:
// the transformation sequence consists of exactly the operations totally
// ordered before and concurrent with the integrated operation.
func (s *Space) EnableAudit() { s.audit = true }

// AuditLog returns the recorded integrations.
func (s *Space) AuditLog() []AuditEntry {
	out := make([]AuditEntry, len(s.auditLog))
	copy(out, s.auditLog)
	return out
}
