// Package logoot implements the Logoot CRDT of Weiss, Urso and Molli
// (ICDCS 2009), the second CRDT baseline of the reproduction. The paper's
// related-work section (Section 9) singles it out as the design that
// "eliminates tombstones in TreeDoc by using a position identifier based on
// a list of integers".
//
// Every element carries an immutable position identifier: a list of
// (digit, peer) pairs ordered lexicographically, with a strict prefix
// ordering below any of its extensions. The replica state is simply the set
// of (identifier, element) pairs sorted by identifier — deletions remove
// outright, no tombstones — and the identifier order is the single total
// list order lo shared by all replicas, which is why Logoot (like RGA)
// satisfies the STRONG list specification: orderings hold relative to
// deleted elements trivially, because the identifiers of deleted elements
// remain comparable forever.
//
// Identifier allocation between two neighbors follows the deterministic
// midpoint strategy: find the first level with a digit gap and take its
// midpoint; when a level has no room, copy the left bound's pair and
// descend (a copied pair that is strictly below the right bound unbounds
// all deeper levels). Freshly allocated digits are always ≥ 1, so the
// reserved digit 0 can pad descents safely.
package logoot

import (
	"fmt"
	"sort"
	"strings"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// digitBase bounds digits exclusively; fresh digits lie in (0, digitBase).
const digitBase = 1 << 16

// Ident is one level of a position identifier. Clock is the generating
// peer's logical counter at allocation time; it makes identifiers globally
// unique FOREVER, so a deterministic midpoint can never be re-issued after
// its element is deleted (without it, an in-flight delete for the old
// element would remove the new one — Logoot's classical "site clock").
type Ident struct {
	Digit uint32
	Peer  opid.ClientID
	Clock uint64
}

// Pos is a position identifier: a non-empty list of Idents.
type Pos []Ident

// Compare orders identifiers: lexicographic by (Digit, Peer); a strict
// prefix sorts below its extensions. Returns -1, 0, or 1.
func (p Pos) Compare(q Pos) int {
	for i := 0; i < len(p) && i < len(q); i++ {
		a, b := p[i], q[i]
		switch {
		case a.Digit != b.Digit:
			if a.Digit < b.Digit {
				return -1
			}
			return 1
		case a.Peer != b.Peer:
			if a.Peer < b.Peer {
				return -1
			}
			return 1
		case a.Clock != b.Clock:
			if a.Clock < b.Clock {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(p) < len(q):
		return -1
	case len(p) > len(q):
		return 1
	default:
		return 0
	}
}

// String renders the identifier, e.g. "⟨32768.c1|4.c2⟩".
func (p Pos) String() string {
	var b strings.Builder
	b.WriteString("⟨")
	for i, id := range p {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d.%s.%d", id.Digit, id.Peer, id.Clock)
	}
	b.WriteString("⟩")
	return b.String()
}

// Between allocates a fresh identifier strictly between p and q for the
// given peer. Nil bounds mean the document edges: nil p is below
// everything, nil q above everything. Requires p < q when both are given.
func Between(p, q Pos, peer opid.ClientID, clock uint64) (Pos, error) {
	if p != nil && q != nil && p.Compare(q) >= 0 {
		return nil, fmt.Errorf("logoot: bounds out of order: %s !< %s", p, q)
	}
	var out Pos
	qBounded := q != nil
	for level := 0; level <= len(p)+1; level++ {
		var effP uint32
		var pid *Ident
		if level < len(p) {
			pid = &p[level]
			effP = pid.Digit
		}
		effQ := uint32(digitBase)
		var qid *Ident
		if qBounded && level < len(q) {
			qid = &q[level]
			effQ = qid.Digit
		}
		if effQ > effP+1 {
			mid := effP + (effQ-effP)/2
			return append(out, Ident{Digit: mid, Peer: peer, Clock: clock}), nil
		}
		// No room at this level: copy the left bound (or a reserved
		// 0-digit pad when the left bound is exhausted) and descend.
		cp := Ident{Digit: 0, Peer: peer, Clock: clock}
		if pid != nil {
			cp = *pid
		}
		out = append(out, cp)
		if qBounded && qid != nil {
			// If the copied pair is strictly below q's pair, every deeper
			// extension stays below q: q no longer bounds us.
			switch {
			case cp.Digit < qid.Digit,
				cp.Digit == qid.Digit && cp.Peer < qid.Peer,
				cp.Digit == qid.Digit && cp.Peer == qid.Peer && cp.Clock < qid.Clock:
				qBounded = false
			case cp == *qid:
				// Still tracking q exactly; stay bounded.
			default:
				return nil, fmt.Errorf("logoot: copied pair %v above bound %v", cp, *qid)
			}
		}
	}
	return nil, fmt.Errorf("logoot: allocation did not terminate between %s and %s", p, q)
}

// EffectKind distinguishes insert and delete effects.
type EffectKind uint8

// Effect kinds.
const (
	EffectIns EffectKind = iota + 1
	EffectDel
)

// Effect is the downstream message of a Logoot operation.
type Effect struct {
	Kind EffectKind
	Pos  Pos
	Elem list.Elem
	Op   ot.Op    // originating user operation (for histories)
	Ctx  opid.Set // visible updates at the origin (for histories)
}

// Addressed pairs an effect with a destination client.
type Addressed struct {
	To     opid.ClientID
	Effect Effect
}

type entry struct {
	pos  Pos
	elem list.Elem
}

// Replica is a Logoot replica.
type Replica struct {
	name      string
	id        opid.ClientID
	entries   []entry // sorted by pos
	processed opid.Set
	nextSeq   uint64
	posClock  uint64 // site clock stamped into allocated identifiers
	readSeq   uint64
	rec       core.Tracker
}

// NewReplica creates a Logoot replica. The server passes id < 0.
func NewReplica(name string, id opid.ClientID, rec core.Recorder) *Replica {
	return &Replica{name: name, id: id, processed: opid.NewSet(), rec: core.NewTracker(rec)}
}

// Document returns the elements in identifier order.
func (r *Replica) Document() []list.Elem {
	out := make([]list.Elem, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.elem
	}
	return out
}

// Len returns the number of live elements (Logoot keeps nothing else).
func (r *Replica) Len() int { return len(r.entries) }

// search returns the index of pos, or the insertion point with found=false.
func (r *Replica) search(pos Pos) (int, bool) {
	i := sort.Search(len(r.entries), func(k int) bool {
		return r.entries[k].pos.Compare(pos) >= 0
	})
	if i < len(r.entries) && r.entries[i].pos.Compare(pos) == 0 {
		return i, true
	}
	return i, false
}

// GenerateIns inserts val at index pos and returns the broadcast effect.
func (r *Replica) GenerateIns(val rune, pos int) (Effect, error) {
	if pos < 0 || pos > len(r.entries) {
		return Effect{}, fmt.Errorf("%s: %w: insert at %d, len %d", r.name, list.ErrPosOutOfRange, pos, len(r.entries))
	}
	var left, right Pos
	if pos > 0 {
		left = r.entries[pos-1].pos
	}
	if pos < len(r.entries) {
		right = r.entries[pos].pos
	}
	r.posClock++
	ident, err := Between(left, right, r.id, r.posClock)
	if err != nil {
		return Effect{}, fmt.Errorf("%s: %w", r.name, err)
	}
	r.nextSeq++
	id := opid.OpID{Client: r.id, Seq: r.nextSeq}
	elem := list.Elem{Val: val, ID: id}
	ctx := r.processed.Clone()
	eff := Effect{Kind: EffectIns, Pos: ident, Elem: elem, Op: ot.Ins(val, pos, id), Ctx: ctx}
	if err := r.Integrate(eff); err != nil {
		return Effect{}, err
	}
	if r.rec.On() {
		r.rec.Record(r.name, eff.Op, r.Document())
	}
	return eff, nil
}

// GenerateDel deletes the element at index pos and returns the broadcast
// effect.
func (r *Replica) GenerateDel(pos int) (Effect, error) {
	if pos < 0 || pos >= len(r.entries) {
		return Effect{}, fmt.Errorf("%s: %w: delete at %d, len %d", r.name, list.ErrPosOutOfRange, pos, len(r.entries))
	}
	target := r.entries[pos]
	r.nextSeq++
	id := opid.OpID{Client: r.id, Seq: r.nextSeq}
	ctx := r.processed.Clone()
	eff := Effect{Kind: EffectDel, Pos: target.pos, Elem: target.elem, Op: ot.Del(target.elem, pos, id), Ctx: ctx}
	if err := r.Integrate(eff); err != nil {
		return Effect{}, err
	}
	if r.rec.On() {
		r.rec.Record(r.name, eff.Op, r.Document())
	}
	return eff, nil
}

// Integrate applies a local or remote effect. Deletes of already-removed
// identifiers are no-ops (concurrent deletes commute).
func (r *Replica) Integrate(eff Effect) error {
	switch eff.Kind {
	case EffectIns:
		i, found := r.search(eff.Pos)
		if found {
			return fmt.Errorf("%s: duplicate identifier %s", r.name, eff.Pos)
		}
		r.entries = append(r.entries, entry{})
		copy(r.entries[i+1:], r.entries[i:])
		r.entries[i] = entry{pos: eff.Pos, elem: eff.Elem}
	case EffectDel:
		if i, found := r.search(eff.Pos); found {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
		}
	default:
		return fmt.Errorf("%s: unknown effect kind %d", r.name, eff.Kind)
	}
	r.processed = r.processed.Add(eff.Op.ID)
	r.rec.Processed(eff.Op.ID)
	return nil
}

// Read records a do(Read, w) event returning the current list.
func (r *Replica) Read() []list.Elem {
	r.readSeq++
	id := opid.OpID{Client: -r.id - 5000, Seq: r.readSeq}
	w := r.Document()
	if r.rec.On() {
		r.rec.Record(r.name, ot.Read(id), w)
	}
	return w
}

// Server is the relay server (same role as the RGA one): it keeps its own
// replica for reads and forwards effects.
type Server struct {
	rep     *Replica
	clients []opid.ClientID
}

// NewServer creates the relay server.
func NewServer(clients []opid.ClientID, rec core.Recorder) *Server {
	return &Server{
		rep:     NewReplica(opid.ServerName, -1, rec),
		clients: append([]opid.ClientID(nil), clients...),
	}
}

// Receive integrates and forwards an effect.
func (s *Server) Receive(from opid.ClientID, eff Effect) ([]Addressed, error) {
	if err := s.rep.Integrate(eff); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	out := make([]Addressed, 0, len(s.clients)-1)
	for _, c := range s.clients {
		if c == from {
			continue
		}
		out = append(out, Addressed{To: c, Effect: eff})
	}
	return out, nil
}

// Document returns the server replica's elements.
func (s *Server) Document() []list.Elem { return s.rep.Document() }

// Read records a read at the server replica.
func (s *Server) Read() []list.Elem { return s.rep.Read() }

// Len returns the server replica's element count.
func (s *Server) Len() int { return s.rep.Len() }
