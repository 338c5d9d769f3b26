// Package woot implements the WOOT CRDT of Oster, Urso, Molli and Imine
// (CSCW 2006) — the last of the four CRDT designs the paper's related-work
// section surveys (§9): WOOT "maintains a partial list order and ensures
// convergence by using a monotonic linear extension function".
//
// Every character carries its identifier plus the identifiers of the
// characters that were immediately LEFT and RIGHT of it at generation time.
// The replica keeps all characters ever inserted (tombstones for deleted
// ones) in one linear buffer bounded by virtual Begin/End sentinels. The
// classical recursive integration rule places a new character among the
// concurrent characters sitting between its bounds: narrow the window to
// characters whose own bounds lie outside the window, pick the slot by
// identifier order, and recurse until the window is empty.
//
// Preconditions (guaranteed by the star relay's FIFO channels): a
// character's bounds are integrated before it, and deletions follow their
// insertions.
package woot

import (
	"fmt"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// Begin and End are the virtual boundary identifiers.
var (
	beginID = opid.OpID{Client: -10_000, Seq: 1}
	endID   = opid.OpID{Client: 10_000, Seq: 1}
)

// less orders character identifiers (WOOT's total order on ids: site then
// sequence, with the virtual bounds at the extremes).
func less(a, b opid.OpID) bool {
	return a.Less(b)
}

// EffectKind distinguishes insert and delete effects.
type EffectKind uint8

// Effect kinds.
const (
	EffectIns EffectKind = iota + 1
	EffectDel
)

// Effect is the downstream message of a WOOT operation.
type Effect struct {
	Kind EffectKind
	Elem list.Elem
	Prev opid.OpID // EffectIns: left bound at generation
	Next opid.OpID // EffectIns: right bound at generation
	Op   ot.Op     // originating user operation (for histories)
	Ctx  opid.Set  // visible updates at the origin (for histories)
}

// Addressed pairs an effect with a destination client.
type Addressed struct {
	To     opid.ClientID
	Effect Effect
}

// wchar is one character cell, possibly a tombstone.
type wchar struct {
	elem       list.Elem
	prev, next opid.OpID
	visible    bool
}

// Replica is a WOOT replica.
type Replica struct {
	name      string
	id        opid.ClientID
	chars     []wchar // linear buffer between the virtual bounds
	index     map[opid.OpID]int
	nvisible  int
	processed opid.Set
	nextSeq   uint64
	readSeq   uint64
	rec       core.Tracker
}

// NewReplica creates a WOOT replica. The server passes id < 0.
func NewReplica(name string, id opid.ClientID, rec core.Recorder) *Replica {
	return &Replica{
		name:      name,
		id:        id,
		index:     make(map[opid.OpID]int),
		processed: opid.NewSet(),
		rec:       core.NewTracker(rec),
	}
}

// Document returns the visible elements in order.
func (r *Replica) Document() []list.Elem {
	out := make([]list.Elem, 0, r.nvisible)
	for _, c := range r.chars {
		if c.visible {
			out = append(out, c.elem)
		}
	}
	return out
}

// TotalNodes returns the buffer size including tombstones (metadata, E3).
func (r *Replica) TotalNodes() int { return len(r.chars) }

// posOf returns the buffer position of id, with the virtual bounds mapped
// to -1 and len(chars).
func (r *Replica) posOf(id opid.OpID) (int, error) {
	switch id {
	case beginID:
		return -1, nil
	case endID:
		return len(r.chars), nil
	}
	i, ok := r.index[id]
	if !ok {
		return 0, fmt.Errorf("%s: unknown character %s (causal delivery violated)", r.name, id)
	}
	return i, nil
}

// visibleAt maps a visible index to a buffer index (the position of the
// v-th visible character).
func (r *Replica) visibleAt(v int) int {
	seen := 0
	for i, c := range r.chars {
		if !c.visible {
			continue
		}
		if seen == v {
			return i
		}
		seen++
	}
	return len(r.chars)
}

// insertAt splices ch into the buffer at position i and reindexes.
func (r *Replica) insertAt(i int, ch wchar) {
	r.chars = append(r.chars, wchar{})
	copy(r.chars[i+1:], r.chars[i:])
	r.chars[i] = ch
	for k := i; k < len(r.chars); k++ {
		r.index[r.chars[k].elem.ID] = k
	}
	r.nvisible++
}

// integrateIns is the classical WOOT recursive placement of ch between the
// buffer positions of lo and hi (exclusive bounds).
func (r *Replica) integrateIns(ch wchar, lo, hi opid.OpID) error {
	lp, err := r.posOf(lo)
	if err != nil {
		return err
	}
	hp, err := r.posOf(hi)
	if err != nil {
		return err
	}
	if lp >= hp {
		return fmt.Errorf("%s: bounds inverted for %s: %s..%s", r.name, ch.elem.ID, lo, hi)
	}
	if hp-lp == 1 {
		r.insertAt(hp, ch)
		return nil
	}
	// Window of characters strictly between the bounds whose OWN bounds lie
	// outside the window — the candidates concurrent at this level.
	bounds := []opid.OpID{lo}
	for i := lp + 1; i < hp; i++ {
		c := r.chars[i]
		cp, err := r.posOf(c.prev)
		if err != nil {
			return err
		}
		cn, err := r.posOf(c.next)
		if err != nil {
			return err
		}
		if cp <= lp && cn >= hp {
			bounds = append(bounds, c.elem.ID)
		}
	}
	bounds = append(bounds, hi)
	// Slot by identifier order among the candidates.
	i := 1
	for i < len(bounds)-1 && less(bounds[i], ch.elem.ID) {
		i++
	}
	return r.integrateIns(ch, bounds[i-1], bounds[i])
}

// GenerateIns inserts val at visible position pos locally and returns the
// effect to broadcast.
func (r *Replica) GenerateIns(val rune, pos int) (Effect, error) {
	if pos < 0 || pos > r.nvisible {
		return Effect{}, fmt.Errorf("%s: %w: insert at %d, len %d", r.name, list.ErrPosOutOfRange, pos, r.nvisible)
	}
	prev, next := beginID, endID
	if pos > 0 {
		prev = r.chars[r.visibleAt(pos-1)].elem.ID
	}
	// The right bound is the next visible character AFTER prev's position —
	// WOOT uses the visible neighborhood at generation time.
	if pos < r.nvisible {
		next = r.chars[r.visibleAt(pos)].elem.ID
	}
	r.nextSeq++
	id := opid.OpID{Client: r.id, Seq: r.nextSeq}
	elem := list.Elem{Val: val, ID: id}
	ctx := r.processed.Clone()
	eff := Effect{Kind: EffectIns, Elem: elem, Prev: prev, Next: next, Op: ot.Ins(val, pos, id), Ctx: ctx}
	if err := r.Integrate(eff); err != nil {
		return Effect{}, err
	}
	if r.rec.On() {
		r.rec.Record(r.name, eff.Op, r.Document())
	}
	return eff, nil
}

// GenerateDel hides the element at visible position pos and returns the
// effect to broadcast.
func (r *Replica) GenerateDel(pos int) (Effect, error) {
	if pos < 0 || pos >= r.nvisible {
		return Effect{}, fmt.Errorf("%s: %w: delete at %d, len %d", r.name, list.ErrPosOutOfRange, pos, r.nvisible)
	}
	c := r.chars[r.visibleAt(pos)]
	r.nextSeq++
	id := opid.OpID{Client: r.id, Seq: r.nextSeq}
	ctx := r.processed.Clone()
	eff := Effect{Kind: EffectDel, Elem: c.elem, Op: ot.Del(c.elem, pos, id), Ctx: ctx}
	if err := r.Integrate(eff); err != nil {
		return Effect{}, err
	}
	if r.rec.On() {
		r.rec.Record(r.name, eff.Op, r.Document())
	}
	return eff, nil
}

// Integrate applies a local or remote effect. Deletions are idempotent.
func (r *Replica) Integrate(eff Effect) error {
	switch eff.Kind {
	case EffectIns:
		if _, dup := r.index[eff.Elem.ID]; dup {
			return fmt.Errorf("%s: duplicate character %s", r.name, eff.Elem.ID)
		}
		ch := wchar{elem: eff.Elem, prev: eff.Prev, next: eff.Next, visible: true}
		if err := r.integrateIns(ch, eff.Prev, eff.Next); err != nil {
			return err
		}
	case EffectDel:
		i, ok := r.index[eff.Elem.ID]
		if !ok {
			return fmt.Errorf("%s: delete of unknown character %s", r.name, eff.Elem.ID)
		}
		if r.chars[i].visible {
			r.chars[i].visible = false
			r.nvisible--
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
	id := opid.OpID{Client: -r.id - 7000, Seq: r.readSeq}
	w := r.Document()
	if r.rec.On() {
		r.rec.Record(r.name, ot.Read(id), w)
	}
	return w
}

// Server is the relay server, mirroring the other CRDT baselines.
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

// Document returns the server replica's visible elements.
func (s *Server) Document() []list.Elem { return s.rep.Document() }

// Read records a read at the server replica.
func (s *Server) Read() []list.Elem { return s.rep.Read() }

// TotalNodes returns the server replica's buffer size with tombstones.
func (s *Server) TotalNodes() int { return s.rep.TotalNodes() }
