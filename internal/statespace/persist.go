package statespace

import (
	"encoding/json"
	"fmt"
	"sort"

	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// State-space persistence.
//
// A crashed client that merely rejoins from a server snapshot loses its
// unacknowledged operations; persisting the replica state preserves them.
// The space serializes to a deterministic JSON document: every state (by
// canonical operation-set key) with its outgoing edges IN SIBLING ORDER, so
// the reload reproduces the exact structure, including the total order of
// transitions and pending order keys.
//
// Documents-at-states (WithDocs) are not serialized — they are test/debug
// state; a reloaded space serves the protocol, which keeps its own document.

type compJSON struct {
	Client int32  `json:"client"`
	Seq    uint64 `json:"seq"`
}

type opJSON struct {
	Kind string `json:"kind"`
	Val  string `json:"val,omitempty"`
	Elem *struct {
		Val string   `json:"val"`
		ID  compJSON `json:"id"`
	} `json:"elem,omitempty"`
	Pos int      `json:"pos"`
	ID  compJSON `json:"id"`
	Pri int32    `json:"pri"`
}

type edgeJSON struct {
	Op  opJSON `json:"op"`
	To  string `json:"to"`
	Key uint64 `json:"key"`
}

type stateJSON struct {
	Ops   []compJSON `json:"ops"`
	Edges []edgeJSON `json:"edges"`
}

type spaceJSON struct {
	States  map[string]stateJSON `json:"states"`
	Initial string               `json:"initial"`
	Final   string               `json:"final"`
	// Orders carries order keys for operations with no surviving edges
	// (e.g. everything inside a compaction root).
	Orders map[string]uint64 `json:"orders,omitempty"`
}

func compOf(id opid.OpID) compJSON {
	return compJSON{Client: int32(id.Client), Seq: id.Seq}
}

func idOf(c compJSON) opid.OpID {
	return opid.OpID{Client: opid.ClientID(c.Client), Seq: c.Seq}
}

func opToJSON(o ot.Op) opJSON {
	j := opJSON{Pos: o.Pos, ID: compOf(o.ID), Pri: o.Pri}
	switch o.Kind {
	case ot.KindIns:
		j.Kind = "ins"
		j.Val = string(o.Elem.Val)
	case ot.KindDel:
		j.Kind = "del"
		j.Elem = &struct {
			Val string   `json:"val"`
			ID  compJSON `json:"id"`
		}{Val: string(o.Elem.Val), ID: compOf(o.Elem.ID)}
	case ot.KindNop:
		j.Kind = "nop"
	default:
		j.Kind = "nop"
	}
	return j
}

func opFromJSON(j opJSON) (ot.Op, error) {
	id := idOf(j.ID)
	switch j.Kind {
	case "ins":
		r := []rune(j.Val)
		if len(r) != 1 {
			return ot.Op{}, fmt.Errorf("statespace: bad insert value %q", j.Val)
		}
		o := ot.Ins(r[0], j.Pos, id)
		o.Pri = j.Pri
		return o, nil
	case "del":
		if j.Elem == nil {
			return ot.Op{}, fmt.Errorf("statespace: delete without element")
		}
		r := []rune(j.Elem.Val)
		if len(r) != 1 {
			return ot.Op{}, fmt.Errorf("statespace: bad element value %q", j.Elem.Val)
		}
		o := ot.Del(list.Elem{Val: r[0], ID: idOf(j.Elem.ID)}, j.Pos, id)
		o.Pri = j.Pri
		return o, nil
	case "nop":
		return ot.Nop(id), nil
	default:
		return ot.Op{}, fmt.Errorf("statespace: unknown op kind %q", j.Kind)
	}
}

// MarshalJSON implements json.Marshaler. The canonical operation-set keys
// and sorted sets are computed from the interned representation here — the
// on-disk format is identical to what the pre-interning encoder produced.
// Keys computed here are not memoized: saving a space does not grow it.
func (s *Space) MarshalJSON() ([]byte, error) {
	keys := make([]string, s.states.n)
	sets := make([][]opid.OpID, s.states.n)
	for i := range keys {
		ops := s.opsOf(int32(i))
		sets[i] = ops.Sorted()
		keys[i] = ops.Key()
		if t := s.tag(int32(i)); t != "" {
			keys[i] += "#" + t
		}
	}
	out := spaceJSON{
		States:  make(map[string]stateJSON, len(keys)),
		Initial: keys[s.initial],
		Final:   keys[s.final],
		Orders:  make(map[string]uint64),
	}
	edged := make(map[opid.OpID]bool)
	for i, key := range keys {
		sj := stateJSON{Ops: make([]compJSON, 0, len(sets[i])), Edges: []edgeJSON{}}
		for _, id := range sets[i] {
			sj.Ops = append(sj.Ops, compOf(id))
		}
		for e := s.states.at(int32(i)).out; e != none; e = s.edges.at(e).sib {
			r := s.edges.at(e)
			op := s.label(e)
			sj.Edges = append(sj.Edges, edgeJSON{Op: opToJSON(op), To: keys[r.to], Key: uint64(s.ops.at(r.op()).key)})
			edged[op.ID] = true
		}
		out.States[key] = sj
	}
	for id, oi := range s.opIdx {
		if !edged[id] {
			out.Orders[id.String()] = uint64(s.ops.at(oi).key)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler. The receiver must be a fresh
// Space (e.g. from New); its contents are replaced. Each restored state is
// rebuilt as a chain link — its parent and added operation read off one
// incoming edge whose source is exactly one operation smaller — so only
// the initial state (and any state without such an edge) materializes its
// operation set.
func (s *Space) UnmarshalJSON(data []byte) error {
	var in spaceJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("statespace: %w", err)
	}
	// State indexes are assigned in canonical key order so a reload is
	// fully deterministic.
	keys := make([]string, 0, len(in.States))
	for key := range in.States {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	index := make(map[string]int32, len(keys))
	sets := make([]opid.Set, len(keys))
	for i, key := range keys {
		ops := opid.NewSet()
		for _, c := range in.States[key].Ops {
			ops.Put(idOf(c))
		}
		if ops.Key() != key {
			return fmt.Errorf("statespace: state key %q does not match its ops %s", key, ops)
		}
		index[key] = int32(i)
		sets[i] = ops
	}
	init, ok := index[in.Initial]
	if !ok {
		return fmt.Errorf("statespace: missing initial state %q", in.Initial)
	}
	final, ok := index[in.Final]
	if !ok {
		return fmt.Errorf("statespace: missing final state %q", in.Final)
	}

	// Decode every edge, in state order then sibling order.
	type flatEdge struct {
		from, to int32
		op       ot.Op
		key      OrderKey
	}
	var flat []flatEdge
	for i, key := range keys {
		for _, ej := range in.States[key].Edges {
			to, ok := index[ej.To]
			if !ok {
				return fmt.Errorf("statespace: edge from %q to missing state %q", key, ej.To)
			}
			op, err := opFromJSON(ej.Op)
			if err != nil {
				return err
			}
			flat = append(flat, flatEdge{from: int32(i), to: to, op: op, key: OrderKey(ej.Key)})
		}
	}

	t := &Space{opIdx: make(map[opid.OpID]int32), base: make(map[int32]opid.Set),
		initial: init, final: final, gen: s.gen + 1, relaxed: s.relaxed, audit: s.audit, auditLog: s.auditLog}
	// An operation's table entry holds one of its labels that is not a Nop,
	// so that its other labels are that entry with another kind or position.
	for _, fe := range flat {
		if oi, ok := t.opIdx[fe.op.ID]; ok && t.ops.at(oi).op.Kind == ot.KindNop && fe.op.Kind != ot.KindNop {
			t.ops.at(oi).op = fe.op
		}
		if _, err := t.opEntry(fe.op, fe.key); err != nil {
			return err
		}
	}
	recs := make([]stateRec, len(keys))
	for i := range recs {
		recs[i] = stateRec{hash: sets[i].Hash(), depth: int32(len(sets[i])), parent: none, out: none, in: none}
	}
	for _, fe := range flat {
		r, from, to := &recs[fe.to], sets[fe.from], sets[fe.to]
		if r.parent != none || fe.to == init || len(to) != len(from)+1 || !to.Contains(fe.op.ID) || !from.Subset(to) {
			continue
		}
		r.parent, r.added = fe.from, fe.op.ID
	}
	for i, r := range recs {
		t.states.push(r)
		if r.parent == none {
			t.base[int32(i)] = sets[i]
		}
	}
	// Edges were serialized in sibling order; appending preserves it.
	last := make([]int32, len(keys))
	for i := range last {
		last[i] = none
	}
	for _, fe := range flat {
		e := t.newEdge(fe.from, fe.to, fe.op, t.opIdx[fe.op.ID])
		if last[fe.from] == none {
			t.states.at(fe.from).out = e
		} else {
			t.edges.at(last[fe.from]).sib = e
		}
		last[fe.from] = e
		tr := t.states.at(fe.to)
		t.edges.at(e).par, tr.in = tr.in, e
	}
	for idStr, key := range in.Orders {
		var c int32
		var seq uint64
		if _, err := fmt.Sscanf(idStr, "c%d:%d", &c, &seq); err != nil {
			return fmt.Errorf("statespace: bad order id %q: %w", idStr, err)
		}
		if _, err := t.opEntry(ot.Op{ID: opid.OpID{Client: opid.ClientID(c), Seq: seq}}, OrderKey(key)); err != nil {
			return err
		}
	}
	t.rehash(bucketsFor(len(keys)))
	*s = *t
	return nil
}
