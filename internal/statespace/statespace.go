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
// ladder rung would clone a context map. Instead each state carries a dense
// uint32 StateID and an order-independent 64-bit set hash; a child's
// identity derives incrementally from its parent's (hash ^ added-op hash,
// O(1)), the intern index resolves an explicit set in O(|set|) with no
// allocation, and a child is found by scanning its parent's at most n
// transitions (Lemma 6.1). The operation set itself is materialized lazily by
// walking the creation-parent chain (State.Ops), so creating a state is O(1).
// Explicit sets remain the wire and specification format; they are resolved
// to interned states only at the message boundary. What only tests and tools
// read sits behind one pointer that protocol-built states leave nil.
//
// Order keys. Every transition carries an order key: the server-assigned
// global sequence number of its underlying original operation, or
// PendingKey for a client's own not-yet-acknowledged operations. A pending
// operation is, by the FIFO argument of Section 6.2, totally ordered after
// every operation the client currently knows, so PendingKey sorts last;
// Promote installs the real key, in the one cell all the operation's
// transitions share, when the server's acknowledgement arrives.
package statespace

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

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
// are assigned in creation order and never reused; they are meaningful only
// relative to their owning space.
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
	// ErrForeignState reports passing a *State to a space that does not own it.
	ErrForeignState = errors.New("statespace: state belongs to a different space")
)

// State is a node of the state-space: the fields Algorithm 1 reads, and x.
type State struct {
	id    StateID
	hash  uint64 // order-independent hash of the operation set
	depth int    // |operation set|

	// Identity representation: either base holds the materialized set
	// (roots, restored spaces, compaction survivors), or the set is
	// parent's set ∪ {added} (the creation-parent chain).
	parent *State
	added  opid.OpID
	base   opid.Set

	collide *State // next state on the same intern hash chain

	edges   []*Edge // outgoing transitions, in sibling (total) order
	parents []*Edge // incoming transitions, unordered

	x *stateExtra // nil until a builder tag, Key or WithDocs needs it
}

// stateExtra is the part of a state the protocol never reads.
type stateExtra struct {
	// tag disambiguates hand-built states sharing an operation set
	// (Builder.EdgeTagged).
	tag string

	key string // canonical Ops().Key() (+ "#tag"), memoized by Key()

	// Document representation (WithDocs): doc is the materialized value;
	// when nil with docParent set, the value derives lazily as docParent's
	// document + docOp (copy-on-write: ladder rungs cost nothing until read).
	doc       list.Doc
	docParent *State
	docOp     ot.Op
}

// tag returns the state's builder tag ("" for protocol-built states).
func (st *State) tag() string {
	if st.x == nil {
		return ""
	}
	return st.x.tag
}

// ID returns the state's dense interned identity within its space.
func (st *State) ID() StateID { return st.id }

// Len returns the size of the state's operation set without materializing it.
func (st *State) Len() int { return st.depth }

// Contains reports whether the state's operation set contains id, walking
// the creation-parent chain (O(depth), no allocation).
func (st *State) Contains(id opid.OpID) bool {
	cur := st
	for cur.base == nil {
		if cur.added == id {
			return true
		}
		cur = cur.parent
	}
	return cur.base.Contains(id)
}

// Ops materializes the state's operation set by walking the creation-parent
// chain. The returned set is a fresh copy owned by the caller.
func (st *State) Ops() opid.Set {
	out := make(opid.Set, st.depth)
	cur := st
	for cur.base == nil {
		out[cur.added] = struct{}{}
		cur = cur.parent
	}
	for k := range cur.base {
		out[k] = struct{}{}
	}
	return out
}

// equalsSet reports whether the state's operation set (and tag) equals ops.
// Every chain-added operation is distinct from the rest of its parent's set,
// so size equality plus membership of each chain/base element is equality.
func (st *State) equalsSet(ops opid.Set, tag string) bool {
	if st.tag() != tag || st.depth != len(ops) {
		return false
	}
	cur := st
	for cur.base == nil {
		if !ops.Contains(cur.added) {
			return false
		}
		cur = cur.parent
	}
	for k := range cur.base {
		if !ops.Contains(k) {
			return false
		}
	}
	return true
}

// Edges returns a copy of the outgoing transitions in sibling order
// (leftmost first). For allocation-free iteration use EdgeCount/EdgeAt.
func (st *State) Edges() []*Edge {
	out := make([]*Edge, len(st.edges))
	copy(out, st.edges)
	return out
}

// EdgeCount returns the number of outgoing transitions.
func (st *State) EdgeCount() int { return len(st.edges) }

// EdgeAt returns the i-th outgoing transition in sibling order without
// copying the edge list.
func (st *State) EdgeAt(i int) *Edge { return st.edges[i] }

// Parents returns a copy of the incoming transitions.
func (st *State) Parents() []*Edge {
	out := make([]*Edge, len(st.parents))
	copy(out, st.parents)
	return out
}

// ParentCount returns the number of incoming transitions.
func (st *State) ParentCount() int { return len(st.parents) }

// ParentAt returns the i-th incoming transition without copying.
func (st *State) ParentAt(i int) *Edge { return st.parents[i] }

// Key returns the canonical string identity of the state (the sorted
// operation-set encoding, plus the builder tag if any). It is computed on
// first use and memoized; protocol hot paths never call it.
func (st *State) Key() string {
	if st.x == nil {
		st.x = &stateExtra{}
	}
	if x := st.x; x.key == "" && (st.depth > 0 || x.tag != "") {
		x.key = st.Ops().Key()
		if x.tag != "" {
			x.key += "#" + x.tag
		}
	}
	return st.x.key
}

// Doc returns the list value at this state, or nil when the space does not
// record documents (see WithDocs). Ladder-rung documents are derived lazily
// (copy-on-write): the first read clones the nearest materialized ancestor
// document and replays the transformed operations down to this state,
// caching every value on the way. Derivation failure panics — a transformed
// operation that cannot apply is a protocol bug, caught eagerly under
// WithCP1Check.
func (st *State) Doc() list.Doc {
	if st.x == nil {
		return nil
	}
	if st.x.doc != nil || st.x.docParent == nil {
		return st.x.doc
	}
	// Walk up to the nearest materialized document, then replay downward.
	chain := []*State{st}
	cur := st.x.docParent
	for cur.x.doc == nil && cur.x.docParent != nil {
		chain = append(chain, cur)
		cur = cur.x.docParent
	}
	if cur.x.doc == nil {
		return nil
	}
	d := cur.x.doc
	for i := len(chain) - 1; i >= 0; i-- {
		ns := chain[i].x
		nd := d.Clone()
		if err := ot.Apply(nd, ns.docOp); err != nil {
			panic(fmt.Sprintf("statespace: derive doc at %s via %s: %v", chain[i], ns.docOp, err))
		}
		ns.doc = nd
		d = nd
	}
	return st.x.doc
}

// String renders the state as its operation set, e.g. "{c1:1,c3:1}".
func (st *State) String() string { return st.Ops().String() }

// Edge is a transition of the state-space, labeled with an original or
// transformed operation.
type Edge struct {
	Op       ot.Op // the labeling operation (Op.ID is the original identity)
	From, To *State

	key *OrderKey // Op.ID's cell, shared by all its edges (Space.orderOf)
}

// OrderKey returns the edge's current order key.
func (e *Edge) OrderKey() OrderKey { return *e.key }

// String renders the edge.
func (e *Edge) String() string {
	return fmt.Sprintf("%s --%s--> %s", e.From, e.Op, e.To)
}

// Space is an n-ary ordered state-space.
type Space struct {
	byHash    map[uint64]*State // intern index: set hash (^ tag hash) → chain
	byID      []*State          // dense StateID → state (nil after compaction)
	numStates int
	initial   *State
	final     *State
	orderOf   map[opid.OpID]*OrderKey // integrated operation → its key cell
	numEdges  int

	pathBuf []*Edge // reusable leftmostPath scratch (hot path, no allocs)

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
	s := &Space{
		byHash:  make(map[uint64]*State),
		orderOf: make(map[opid.OpID]*OrderKey),
	}
	for _, opt := range opts {
		opt(s)
	}
	init := &State{base: root.Clone(), hash: root.Hash(), depth: len(root)}
	if s.recordDocs {
		init.x = &stateExtra{doc: list.NewDocument()}
		if initialDoc != nil {
			init.x.doc = initialDoc.Clone()
		}
	}
	s.intern(init)
	s.initial = init
	s.final = init
	return s
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

// intern assigns the state its dense ID and links it into the hash index.
// The caller has already checked that no equal state exists.
func (s *Space) intern(st *State) {
	st.id = StateID(len(s.byID))
	s.byID = append(s.byID, st)
	h := st.hash ^ tagHash(st.tag())
	st.collide = s.byHash[h]
	s.byHash[h] = st
	s.numStates++
}

// lookup resolves an explicit operation set (and builder tag) to its
// interned state: one commutative hash pass plus, on a hash hit, an
// O(|ops|) chain-walk verification. No allocation.
func (s *Space) lookup(ops opid.Set, tag string) (*State, bool) {
	h := ops.Hash() ^ tagHash(tag)
	for st := s.byHash[h]; st != nil; st = st.collide {
		if st.equalsSet(ops, tag) {
			return st, true
		}
	}
	return nil, false
}

// Initial returns the initial state σ0.
func (s *Space) Initial() *State { return s.initial }

// Final returns the current final state (the state whose operation set is
// everything the owning replica has processed).
func (s *Space) Final() *State { return s.final }

// NumStates returns the number of states.
func (s *Space) NumStates() int { return s.numStates }

// NumEdges returns the number of transitions.
func (s *Space) NumEdges() int { return s.numEdges }

// StateOf returns the state identified by the given operation set, if any.
func (s *Space) StateOf(ops opid.Set) (*State, bool) {
	return s.lookup(ops, "")
}

// Child returns the state reached from parent by adding the given original
// operation: a scan of parent's outgoing transitions, at most n of them
// (Lemma 6.1).
func (s *Space) Child(parent *State, id opid.OpID) (*State, bool) {
	for _, e := range parent.edges {
		if e.Op.ID == id {
			return e.To, true
		}
	}
	return nil, false
}

// OrderKeyOf returns the current order key of an integrated original
// operation (PendingKey if not yet promoted), and whether the operation is
// known to the space at all.
func (s *Space) OrderKeyOf(id opid.OpID) (OrderKey, bool) {
	cell, ok := s.orderOf[id]
	if !ok {
		return 0, false
	}
	return *cell, true
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
	if _, dup := s.orderOf[o.ID]; dup {
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
func (s *Space) IntegrateAt(o ot.Op, sigma *State, key OrderKey) (ot.Op, error) {
	if _, dup := s.orderOf[o.ID]; dup {
		return ot.Op{}, fmt.Errorf("%w: %s", ErrDuplicateOp, o.ID)
	}
	if int(sigma.id) >= len(s.byID) || s.byID[sigma.id] != sigma {
		return ot.Op{}, fmt.Errorf("%w: %s", ErrForeignState, sigma)
	}
	return s.integrateAt(o, sigma, key)
}

func (s *Space) integrateAt(o ot.Op, sigma *State, key OrderKey) (ot.Op, error) {
	// Compute the leftmost path BEFORE adding o's transitions: the path runs
	// to the final state, which does not include o.
	path, err := s.leftmostPath(sigma)
	if err != nil {
		return ot.Op{}, fmt.Errorf("integrate %s: %w", o, err)
	}
	if s.audit {
		entry := AuditEntry{Op: o, Ctx: sigma.Ops(), Key: key, Path: make([]opid.OpID, len(path))}
		for i, e := range path {
			entry.Path[i] = e.Op.ID
		}
		s.auditLog = append(s.auditLog, entry)
	}

	// Save o at σ along the transition of the right order (step 1). Every
	// transition o labels shares one key cell.
	cell := &key
	prev, err := s.addTransition(sigma, o, cell)
	if err != nil {
		return ot.Op{}, err
	}

	// Algorithm 1: iterate OTs along the leftmost path, arranging the new
	// transitions in their appropriate order (lines 3–5).
	cur := o
	for _, f := range path {
		fT := ot.Transform(f.Op, cur) // f{o...}: the top op including o
		cur = ot.Transform(cur, f.Op) // o{...f}: o including one more op

		ns, err := s.newChild(f.To, o.ID)
		if err != nil {
			return ot.Op{}, err
		}
		// Vertical rung: from the existing state f.To, labeled with the
		// progressively transformed o.
		if err := s.linkEdge(f.To, ns, cur, cell); err != nil {
			return ot.Op{}, err
		}
		// Horizontal rail: from the previous new state, labeled with f
		// transformed to include o; it shares f's order-key cell.
		if err := s.linkEdge(prev, ns, fT, f.key); err != nil {
			return ot.Op{}, err
		}
		if s.recordDocs {
			if err := s.snapshotDoc(ns, f.To, cur, prev, fT); err != nil {
				return ot.Op{}, err
			}
		}
		prev = ns
	}

	// Register the operation only now: a failed integration (no matching
	// state, stuck leftmost path) must leave the space able to retry the
	// same operation rather than reporting ErrDuplicateOp forever.
	s.orderOf[o.ID] = cell
	s.final = prev
	return cur, nil
}

// snapshotDoc records the document at the fresh ladder state ns: lazily
// (copy-on-write via State.Doc) in plain WithDocs mode, eagerly under CP1
// checking, where both sides of the commutative square (vertical parent top
// via vop, horizontal parent prevNew via hop) are computed and compared.
func (s *Space) snapshotDoc(ns, top *State, vop ot.Op, prevNew *State, hop ot.Op) error {
	ns.x = &stateExtra{docParent: top, docOp: vop}
	if !s.verifyCP1 {
		return nil
	}
	d := top.Doc().Clone()
	if err := ot.Apply(d, vop); err != nil {
		return fmt.Errorf("statespace: snapshot via %s: %w", vop, err)
	}
	ns.x.doc = d
	d2 := prevNew.Doc().Clone()
	if err := ot.Apply(d2, hop); err != nil {
		return fmt.Errorf("statespace: cp1 side via %s: %w", hop, err)
	}
	if !list.ElemsEqual(d.Elems(), d2.Elems()) {
		return fmt.Errorf("statespace: CP1 square broken at %s: %q vs %q", ns, d.String(), d2.String())
	}
	return nil
}

// addTransition creates the state σ∪{o} and links σ to it with o, placed in
// sibling order; the new state's document is derived when docs are recorded.
func (s *Space) addTransition(sigma *State, o ot.Op, key *OrderKey) (*State, error) {
	ns, err := s.newChild(sigma, o.ID)
	if err != nil {
		return nil, err
	}
	if err := s.linkEdge(sigma, ns, o, key); err != nil {
		return nil, err
	}
	if s.recordDocs {
		ns.x = &stateExtra{docParent: sigma, docOp: o}
		if s.verifyCP1 {
			d := sigma.Doc().Clone()
			if err := ot.Apply(d, o); err != nil {
				return nil, fmt.Errorf("statespace: apply %s at %s: %w", o, sigma, err)
			}
			ns.x.doc = d
		}
	}
	return ns, nil
}

// newChild allocates a fresh state for parent's set extended with added, in
// O(1): the identity hash derives incrementally from the parent's. Ladder
// states are always new — the integrated operation is new to this replica,
// so no existing state's set can contain it; a scan of parent's at most n
// transitions and the intern index enforce that.
func (s *Space) newChild(parent *State, added opid.OpID) (*State, error) {
	if dup, ok := s.Child(parent, added); ok {
		return nil, fmt.Errorf("statespace: state %s unexpectedly exists", dup)
	}
	hash := parent.hash ^ added.Hash()
	if s.byHash[hash] != nil {
		// Hash occupied: either a genuine duplicate (error) or an
		// astronomically unlikely collision — disambiguate exactly.
		ops := parent.Ops()
		ops.Put(added)
		if dup, ok := s.lookup(ops, ""); ok {
			return nil, fmt.Errorf("statespace: state %s unexpectedly exists", dup)
		}
	}
	st := &State{hash: hash, depth: parent.depth + 1, parent: parent, added: added}
	s.intern(st)
	return st, nil
}

// linkEdge inserts the transition from→to labeled op at its ordered sibling
// position. Sibling operations are pairwise concurrent and distinct, so
// order keys plus the identity tie-break give a strict order.
func (s *Space) linkEdge(from, to *State, op ot.Op, key *OrderKey) error {
	if !s.relaxed {
		for _, e := range from.edges {
			if e.Op.ID == op.ID {
				return fmt.Errorf("statespace: duplicate sibling for %s at %s", op.ID, from)
			}
		}
	}
	e := &Edge{Op: op, From: from, To: to, key: key}
	idx := sort.Search(len(from.edges), func(i int) bool {
		return edgeLess(e, from.edges[i])
	})
	from.edges = append(from.edges, nil)
	copy(from.edges[idx+1:], from.edges[idx:])
	from.edges[idx] = e
	to.parents = append(to.parents, e)
	s.numEdges++
	return nil
}

// edgeLess orders sibling transitions: by order key, then (only between two
// pending operations, which a correct protocol never produces as siblings)
// by identity for determinism.
func edgeLess(a, b *Edge) bool {
	if *a.key != *b.key {
		return *a.key < *b.key
	}
	return a.Op.ID.Less(b.Op.ID)
}

// Promote installs the server-assigned order key for an operation that was
// integrated as pending. All transitions labeled by the operation share its
// key cell, so one store re-keys them. Sibling orders never change: by the
// FIFO argument in the package comment, every sibling placed while the
// operation was pending already has a smaller key.
func (s *Space) Promote(id opid.OpID, key OrderKey) error {
	cell, ok := s.orderOf[id]
	if !ok {
		return fmt.Errorf("statespace: promote unknown op %s", id)
	}
	if *cell != PendingKey {
		if *cell == key {
			return nil
		}
		return fmt.Errorf("statespace: op %s already has key %d, cannot re-key to %d", id, *cell, key)
	}
	*cell = key
	return nil
}

// keyCell returns id's order-key cell, registering a fresh one that holds
// key if id is new. All edges of an operation share its cell, so an edge
// whose key disagrees with the operation's is refused rather than re-keyed.
func (s *Space) keyCell(id opid.OpID, key OrderKey) (*OrderKey, error) {
	cell, ok := s.orderOf[id]
	if !ok {
		cell = &key
		s.orderOf[id] = cell
	} else if *cell != key {
		return nil, fmt.Errorf("statespace: edge of %s has order key %d, the operation has %d", id, key, *cell)
	}
	return cell, nil
}

// leftmostPath returns the transitions along the leftmost path from st to
// the final state. By Lemma 6.4 the path exists and carries exactly the
// operations of O \ σ in total order. The returned slice aliases the
// space's reusable scratch buffer: it is valid until the next Integrate.
func (s *Space) leftmostPath(st *State) ([]*Edge, error) {
	path := s.pathBuf[:0]
	cur := st
	for cur != s.final {
		if len(cur.edges) == 0 {
			return nil, fmt.Errorf("statespace: leftmost path from %s stuck at %s before final %s", st, cur, s.final)
		}
		e := cur.edges[0]
		path = append(path, e)
		cur = e.To
		if len(path) > s.numStates {
			return nil, fmt.Errorf("statespace: leftmost path from %s exceeds state count (cycle?)", st)
		}
	}
	s.pathBuf = path
	return path, nil
}

// LeftmostPath exposes the leftmost path from st to the final state for
// tests and tools (Lemma 6.4). The returned slice is the caller's.
func (s *Space) LeftmostPath(st *State) ([]*Edge, error) {
	path, err := s.leftmostPath(st)
	if err != nil {
		return nil, err
	}
	out := make([]*Edge, len(path))
	copy(out, path)
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
