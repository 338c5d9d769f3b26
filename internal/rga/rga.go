// Package rga implements the Replicated Growable Array (RGA) of Roh et al.,
// in the variant analysed by Attiya et al. (PODC 2016), as the CRDT baseline
// of the reproduction.
//
// Attiya et al. proved that this protocol satisfies the STRONG list
// specification — the property the Jupiter protocols violate (Theorem 8.1 of
// the paper, reproduced by the Figure 7 test). Our specification checkers
// must therefore pass RGA histories under CheckStrong while failing
// Jupiter's Figure 7 history; that contrast validates both the baseline and
// the checkers.
//
// Implementation. Each replica maintains a linked sequence of timestamped
// elements, including tombstones for deleted ones. An insertion at visible
// position p is anchored to the element immediately to its left (or the
// head); the effect message carries (anchor, timestamp, element). On
// integration, the element is placed after its anchor, skipping over any
// existing successors of the anchor with LARGER timestamps — this is the RGA
// rule that orders concurrent insertions at the same anchor by descending
// timestamp, yielding a single total order (the "list order" lo) that all
// replicas agree on, deleted elements included.
//
// Timestamps are Lamport clocks paired with the client ID. The same
// client/server star topology as Jupiter is reused so the protocols are
// benchmarked over identical message schedules: the server assigns no
// transformations, it only forwards effect messages (and, like Jupiter's
// server, applies them to its own replica).
package rga

import (
	"fmt"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// Timestamp is a Lamport timestamp with the client identifier as
// tie-breaker. Higher timestamps order earlier among same-anchor siblings.
type Timestamp struct {
	Clock  uint64
	Client opid.ClientID
}

// Greater reports whether t orders strictly above u (larger clock, client ID
// breaking ties).
func (t Timestamp) Greater(u Timestamp) bool {
	if t.Clock != u.Clock {
		return t.Clock > u.Clock
	}
	return t.Client > u.Client
}

// String implements fmt.Stringer.
func (t Timestamp) String() string { return fmt.Sprintf("%d@%s", t.Clock, t.Client) }

// EffectKind distinguishes insert and delete effect messages.
type EffectKind uint8

// Effect kinds.
const (
	EffectIns EffectKind = iota + 1
	EffectDel
)

// Effect is the downstream message of an RGA operation.
type Effect struct {
	Kind   EffectKind
	Elem   list.Elem // inserted or deleted element (identity matters)
	Anchor opid.OpID // EffectIns: element to insert after; zero = head
	TS     Timestamp // EffectIns: ordering timestamp
	Op     ot.Op     // the originating user operation (for histories)
	Ctx    opid.Set  // ops visible at the origin (for histories)
}

// Addressed pairs an effect with its destination client.
type Addressed struct {
	To     opid.ClientID
	Effect Effect
}

// node is one cell of the replicated sequence, possibly a tombstone.
type node struct {
	elem      list.Elem
	ts        Timestamp
	tombstone bool
	next      *node
}

// Replica is an RGA replica (client or server).
type Replica struct {
	name      string
	id        opid.ClientID
	head      *node // sentinel
	index     map[opid.OpID]*node
	clock     uint64
	nextSeq   uint64
	readSeq   uint64
	visible   int // live (non-tombstone) element count
	processed opid.Set
	rec       core.Tracker
}

// NewReplica creates an RGA replica. Client replicas pass their ID; the
// server passes id < 0 and never generates.
func NewReplica(name string, id opid.ClientID, rec core.Recorder) *Replica {
	return &Replica{
		name:      name,
		id:        id,
		head:      &node{},
		index:     make(map[opid.OpID]*node),
		processed: opid.NewSet(),
		rec:       core.NewTracker(rec),
	}
}

// Document returns the live elements in order.
func (r *Replica) Document() []list.Elem {
	var out []list.Elem
	for n := r.head.next; n != nil; n = n.next {
		if !n.tombstone {
			out = append(out, n.elem)
		}
	}
	return out
}

// TotalNodes returns the number of sequence cells including tombstones
// (metadata overhead, experiment E3).
func (r *Replica) TotalNodes() int { return len(r.index) }

// nodeAtVisible returns the node holding the p-th live element, or nil.
func (r *Replica) nodeAtVisible(p int) *node {
	i := 0
	for n := r.head.next; n != nil; n = n.next {
		if n.tombstone {
			continue
		}
		if i == p {
			return n
		}
		i++
	}
	return nil
}

// GenerateIns inserts val at visible position pos locally and returns the
// effect to broadcast.
func (r *Replica) GenerateIns(val rune, pos int) (Effect, error) {
	if pos < 0 || pos > r.visible {
		return Effect{}, fmt.Errorf("%s: %w: insert at %d, len %d", r.name, list.ErrPosOutOfRange, pos, r.visible)
	}
	r.clock++
	r.nextSeq++
	id := opid.OpID{Client: r.id, Seq: r.nextSeq}
	elem := list.Elem{Val: val, ID: id}
	var anchor opid.OpID
	if pos > 0 {
		an := r.nodeAtVisible(pos - 1)
		if an == nil {
			return Effect{}, fmt.Errorf("%s: no anchor at %d", r.name, pos-1)
		}
		anchor = an.elem.ID
	}
	ts := Timestamp{Clock: r.clock, Client: r.id}
	ctx := r.processed.Clone()
	eff := Effect{
		Kind:   EffectIns,
		Elem:   elem,
		Anchor: anchor,
		TS:     ts,
		Op:     ot.Ins(val, pos, id),
		Ctx:    ctx,
	}
	if err := r.Integrate(eff); err != nil {
		return Effect{}, err
	}
	if r.rec.On() {
		r.rec.Record(r.name, eff.Op, r.Document())
	}
	return eff, nil
}

// GenerateDel deletes the element at visible position pos locally and
// returns the effect to broadcast.
func (r *Replica) GenerateDel(pos int) (Effect, error) {
	n := r.nodeAtVisible(pos)
	if n == nil {
		return Effect{}, fmt.Errorf("%s: %w: delete at %d, len %d", r.name, list.ErrPosOutOfRange, pos, r.visible)
	}
	r.clock++
	r.nextSeq++
	id := opid.OpID{Client: r.id, Seq: r.nextSeq}
	ctx := r.processed.Clone()
	eff := Effect{
		Kind: EffectDel,
		Elem: n.elem,
		Op:   ot.Del(n.elem, pos, id),
		Ctx:  ctx,
	}
	if err := r.Integrate(eff); err != nil {
		return Effect{}, err
	}
	if r.rec.On() {
		r.rec.Record(r.name, eff.Op, r.Document())
	}
	return eff, nil
}

// Integrate applies a local or remote effect to the replica state. It is
// idempotent for deletes and rejects duplicate inserts.
func (r *Replica) Integrate(eff Effect) error {
	if eff.TS.Clock > r.clock {
		r.clock = eff.TS.Clock // Lamport clock merge
	}
	switch eff.Kind {
	case EffectIns:
		if _, dup := r.index[eff.Elem.ID]; dup {
			return fmt.Errorf("%s: duplicate insert %s", r.name, eff.Elem.ID)
		}
		prev := r.head
		if !eff.Anchor.Zero() {
			an, ok := r.index[eff.Anchor]
			if !ok {
				return fmt.Errorf("%s: missing anchor %s for %s (causal delivery violated)", r.name, eff.Anchor, eff.Elem.ID)
			}
			prev = an
		}
		// RGA ordering rule: skip successors with larger timestamps.
		for prev.next != nil && prev.next.ts.Greater(eff.TS) {
			prev = prev.next
		}
		n := &node{elem: eff.Elem, ts: eff.TS, next: prev.next}
		prev.next = n
		r.index[eff.Elem.ID] = n
		r.visible++
	case EffectDel:
		n, ok := r.index[eff.Elem.ID]
		if !ok {
			return fmt.Errorf("%s: delete of unknown element %s", r.name, eff.Elem.ID)
		}
		if !n.tombstone {
			n.tombstone = true
			r.visible--
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
	id := opid.OpID{Client: -r.id - 2000, Seq: r.readSeq}
	w := r.Document()
	if r.rec.On() {
		r.rec.Record(r.name, ot.Read(id), w)
	}
	return w
}

// Server is the RGA relay server: it integrates every effect into its own
// replica (so reads at the server work like in Jupiter) and forwards the
// effect to the other clients.
type Server struct {
	rep     *Replica
	clients []opid.ClientID
}

// NewServer creates the relay server for the given clients.
func NewServer(clients []opid.ClientID, rec core.Recorder) *Server {
	return &Server{
		rep:     NewReplica(opid.ServerName, -1, rec),
		clients: append([]opid.ClientID(nil), clients...),
	}
}

// Receive integrates the effect and produces the forwards.
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

// Document returns the server replica's live elements.
func (s *Server) Document() []list.Elem { return s.rep.Document() }

// Read records a read at the server replica.
func (s *Server) Read() []list.Elem { return s.rep.Read() }

// TotalNodes returns the server replica's cell count including tombstones.
func (s *Server) TotalNodes() int { return s.rep.TotalNodes() }
