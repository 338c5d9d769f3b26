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
func (s *Space) MarshalJSON() ([]byte, error) {
	out := spaceJSON{
		States:  make(map[string]stateJSON, s.numStates),
		Initial: s.initial.Key(),
		Final:   s.final.Key(),
		Orders:  make(map[string]uint64),
	}
	edged := make(map[opid.OpID]bool)
	for _, st := range s.byID {
		if st == nil {
			continue
		}
		sj := stateJSON{Ops: make([]compJSON, 0, st.depth), Edges: make([]edgeJSON, 0, len(st.edges))}
		for _, id := range st.Ops().Sorted() {
			sj.Ops = append(sj.Ops, compOf(id))
		}
		for _, e := range st.edges {
			sj.Edges = append(sj.Edges, edgeJSON{Op: opToJSON(e.Op), To: e.To.Key(), Key: uint64(*e.key)})
			edged[e.Op.ID] = true
		}
		out.States[st.Key()] = sj
	}
	for id, cell := range s.orderOf {
		if !edged[id] {
			out.Orders[id.String()] = uint64(*cell)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler. The receiver must be a fresh
// Space (e.g. from New); its contents are replaced.
func (s *Space) UnmarshalJSON(data []byte) error {
	var in spaceJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("statespace: %w", err)
	}
	// Restored states anchor at their materialized base sets; StateIDs are
	// assigned in canonical key order so a reload is fully deterministic.
	keys := make([]string, 0, len(in.States))
	for key := range in.States {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	s.byHash = make(map[uint64]*State, len(keys))
	s.byID = make([]*State, 0, len(keys))
	s.numStates = 0
	s.orderOf = make(map[opid.OpID]*OrderKey)
	s.numEdges = 0
	s.recordDocs = false
	s.verifyCP1 = false

	states := make(map[string]*State, len(keys))
	for _, key := range keys {
		sj := in.States[key]
		ops := opid.NewSet()
		for _, c := range sj.Ops {
			ops.Put(idOf(c))
		}
		if ops.Key() != key {
			return fmt.Errorf("statespace: state key %q does not match its ops %s", key, ops)
		}
		st := &State{base: ops, hash: ops.Hash(), depth: len(ops), x: &stateExtra{key: key}}
		s.intern(st)
		states[key] = st
	}
	init, ok := states[in.Initial]
	if !ok {
		return fmt.Errorf("statespace: missing initial state %q", in.Initial)
	}
	final, ok := states[in.Final]
	if !ok {
		return fmt.Errorf("statespace: missing final state %q", in.Final)
	}
	s.initial = init
	s.final = final

	for key, sj := range in.States {
		from := states[key]
		for _, ej := range sj.Edges {
			to, ok := states[ej.To]
			if !ok {
				return fmt.Errorf("statespace: edge from %q to missing state %q", key, ej.To)
			}
			op, err := opFromJSON(ej.Op)
			if err != nil {
				return err
			}
			cell, err := s.keyCell(op.ID, OrderKey(ej.Key))
			if err != nil {
				return err
			}
			// Edges were serialized in sibling order; appending preserves it
			// (and linkEdge's sort.Search re-derives the same positions).
			e := &Edge{Op: op, From: from, To: to, key: cell}
			from.edges = append(from.edges, e)
			to.parents = append(to.parents, e)
			s.numEdges++
		}
	}
	for idStr, key := range in.Orders {
		var c int32
		var seq uint64
		if _, err := fmt.Sscanf(idStr, "c%d:%d", &c, &seq); err != nil {
			return fmt.Errorf("statespace: bad order id %q: %w", idStr, err)
		}
		if _, err := s.keyCell(opid.OpID{Client: opid.ClientID(c), Seq: seq}, OrderKey(key)); err != nil {
			return err
		}
	}
	return nil
}
