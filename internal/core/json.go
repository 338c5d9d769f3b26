package core

import (
	"encoding/json"
	"fmt"

	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// The wire representation of operations, elements, and histories.
// cmd/speccheck consumes the history format, cmd/jupitersim can emit it, and
// the network runtime (internal/wire, internal/server, internal/client)
// reuses the operation/element/identifier encodings for its frames, so a
// recorded execution and a captured network trace speak the same JSON.

// OpIDJSON is the wire form of an opid.OpID.
type OpIDJSON struct {
	Client int32  `json:"client"`
	Seq    uint64 `json:"seq"`
}

// ElemJSON is the wire form of a list.Elem.
type ElemJSON struct {
	Val string   `json:"val"`
	ID  OpIDJSON `json:"id"`
}

// OpJSON is the wire form of an ot.Op.
type OpJSON struct {
	Kind string    `json:"kind"` // "ins", "del", "nop", "read"
	Val  string    `json:"val,omitempty"`
	Elem *ElemJSON `json:"elem,omitempty"`
	Pos  int       `json:"pos"`
	ID   OpIDJSON  `json:"id"`
	Pri  int32     `json:"pri"`
}

type eventJSON struct {
	Replica  string     `json:"replica"`
	Op       OpJSON     `json:"op"`
	Returned []ElemJSON `json:"returned"`
	Visible  []OpIDJSON `json:"visible"`
}

type historyJSON struct {
	Seed   []ElemJSON  `json:"seed,omitempty"`
	Events []eventJSON `json:"events"`
}

// IDToJSON converts an operation identifier to its wire form.
func IDToJSON(id opid.OpID) OpIDJSON {
	return OpIDJSON{Client: int32(id.Client), Seq: id.Seq}
}

// IDFromJSON converts a wire identifier back.
func IDFromJSON(j OpIDJSON) opid.OpID {
	return opid.OpID{Client: opid.ClientID(j.Client), Seq: j.Seq}
}

// ElemToJSON converts a list element to its wire form.
func ElemToJSON(e list.Elem) ElemJSON {
	return ElemJSON{Val: string(e.Val), ID: IDToJSON(e.ID)}
}

// ElemFromJSON converts a wire element back, validating the value is a
// single rune.
func ElemFromJSON(j ElemJSON) (list.Elem, error) {
	r := []rune(j.Val)
	if len(r) != 1 {
		return list.Elem{}, fmt.Errorf("history json: element value %q is not a single rune", j.Val)
	}
	return list.Elem{Val: r[0], ID: IDFromJSON(j.ID)}, nil
}

// OpToJSON converts an operation to its wire form.
func OpToJSON(o ot.Op) OpJSON {
	j := OpJSON{Pos: o.Pos, ID: IDToJSON(o.ID), Pri: o.Pri}
	switch o.Kind {
	case ot.KindIns:
		j.Kind = "ins"
		j.Val = string(o.Elem.Val)
	case ot.KindDel:
		j.Kind = "del"
		e := ElemToJSON(o.Elem)
		j.Elem = &e
	case ot.KindNop:
		j.Kind = "nop"
	case ot.KindRead:
		j.Kind = "read"
	}
	return j
}

// OpFromJSON converts a wire operation back, validating kind and payload.
func OpFromJSON(j OpJSON) (ot.Op, error) {
	id := IDFromJSON(j.ID)
	switch j.Kind {
	case "ins":
		r := []rune(j.Val)
		if len(r) != 1 {
			return ot.Op{}, fmt.Errorf("history json: insert value %q is not a single rune", j.Val)
		}
		o := ot.Ins(r[0], j.Pos, id)
		o.Pri = j.Pri
		return o, nil
	case "del":
		if j.Elem == nil {
			return ot.Op{}, fmt.Errorf("history json: delete without element")
		}
		e, err := ElemFromJSON(*j.Elem)
		if err != nil {
			return ot.Op{}, err
		}
		o := ot.Del(e, j.Pos, id)
		o.Pri = j.Pri
		return o, nil
	case "nop":
		return ot.Nop(id), nil
	case "read":
		return ot.Read(id), nil
	default:
		return ot.Op{}, fmt.Errorf("history json: unknown op kind %q", j.Kind)
	}
}

// SetToJSON converts an identifier set to its wire form, in canonical order.
func SetToJSON(s opid.Set) []OpIDJSON {
	out := make([]OpIDJSON, 0, len(s))
	for _, id := range s.Sorted() {
		out = append(out, IDToJSON(id))
	}
	return out
}

// SetFromJSON converts a wire identifier list back to a set.
func SetFromJSON(js []OpIDJSON) opid.Set {
	s := opid.NewSet()
	for _, j := range js {
		s.Put(IDFromJSON(j))
	}
	return s
}

// MarshalJSON implements json.Marshaler. Every event carries its whole
// visible set in canonical order, rebuilt from the deltas with one running
// set per replica.
func (h *History) MarshalJSON() ([]byte, error) {
	out := historyJSON{Events: make([]eventJSON, 0, len(h.Events))}
	for _, e := range h.Seed {
		out.Seed = append(out.Seed, ElemToJSON(e))
	}
	views := make(map[string]opid.Set)
	for _, e := range h.Events {
		vis := views[e.Replica]
		if vis == nil {
			vis = opid.NewSet()
			views[e.Replica] = vis
		}
		e.apply(vis)
		ev := eventJSON{
			Replica:  e.Replica,
			Op:       OpToJSON(e.Op),
			Returned: make([]ElemJSON, 0, len(e.Returned)),
			Visible:  SetToJSON(vis),
		}
		for _, el := range e.Returned {
			ev.Returned = append(ev.Returned, ElemToJSON(el))
		}
		out.Events = append(out.Events, ev)
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *History) UnmarshalJSON(data []byte) error {
	var in historyJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("history json: %w", err)
	}
	*h = History{}
	for _, ej := range in.Seed {
		e, err := ElemFromJSON(ej)
		if err != nil {
			return err
		}
		h.Seed = append(h.Seed, e)
	}
	for _, ev := range in.Events {
		op, err := OpFromJSON(ev.Op)
		if err != nil {
			return err
		}
		returned := make([]list.Elem, 0, len(ev.Returned))
		for _, ej := range ev.Returned {
			e, err := ElemFromJSON(ej)
			if err != nil {
				return err
			}
			returned = append(returned, e)
		}
		// Append diffs each set against the replica's previous one.
		h.Append(ev.Replica, op, returned, SetFromJSON(ev.Visible))
	}
	return nil
}
