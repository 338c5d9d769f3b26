// Package core provides the formal framework of Sections 2 and 4 of the
// paper in executable form: do events, histories, abstract executions with
// visibility, and the causal / concurrent / totally-before relations on user
// operations.
//
// The protocols (internal/css, internal/cscw, internal/rga, internal/broken)
// record a History as they run; the specification checkers (internal/spec)
// consume it. The visibility relation of the constructed abstract execution
// is the causal relation, vis = →, exactly as the proof of Theorem 8.2
// chooses it.
package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

// Event is a do event (Definition 2.1's do(op, v)): a user invoked op at
// Replica and immediately received the list Returned. Read events use an op
// of kind ot.KindRead.
//
// The event's visible set is the set of original update operations (Ins/Del)
// causally before it — vis⁻¹(e) restricted to updates, which is all three
// specifications ever inspect. It never contains the event's own operation;
// the checkers use the reflexive closure ≤vis where the specifications do.
// It is stored as a delta against the visible set of the replica's previous
// event: Seen holds the updates that first become visible at Replica with
// this event, and Unseen those that stop being visible. A protocol's replica
// only ever adds, so Unseen is filled only by the JSON decoder and by
// hand-built histories whose sets shrink. History.Visible materializes the
// whole set; VisibleLen and VisibleHash (opid.Set.Hash) summarize it.
type Event struct {
	Replica     string      // replica name, e.g. "c1" or "server"
	Op          ot.Op       // the ORIGINAL user operation (org form)
	Returned    []list.Elem // the list returned to the user
	Seen        []opid.OpID // updates that become visible at Replica with this event
	Unseen      []opid.OpID // updates visible at Replica's previous event but not at this one
	VisibleLen  int         // size of the visible set
	VisibleHash uint64      // opid.Set.Hash of the visible set
	Index       int         // position in the history H
}

// IsRead reports whether the event is a read.
func (e Event) IsRead() bool { return e.Op.Kind == ot.KindRead }

// String renders the event compactly.
func (e Event) String() string {
	return fmt.Sprintf("#%d %s: do(%s) -> %q", e.Index, e.Replica, e.Op, list.Render(e.Returned))
}

// History is the sequence H of do events of an abstract execution
// (Definition 2.9). Events appear in a total order consistent with the
// happens-before relation of the underlying concrete execution.
//
// Seed lists the elements of the initial document, if the execution started
// from a non-empty list. The paper's specifications assume an initially
// empty list; seeding is a harness convenience (e.g. Figure 8 starts from
// "abc"), and the checkers treat seed elements as inserted-before-everything.
//
// While appending, a History keeps each replica's current visible set, so
// an event costs O(its delta) and the history holds each update once per
// replica that sees it, not once per event. The zero value is ready to use.
type History struct {
	Events []Event
	Seed   []list.Elem

	views map[string]*view // replica → visible set as of its latest event
	ids   []opid.OpID      // backing store of the events' Seen lists
}

// view is one replica's visible set as of its latest appended event.
type view struct {
	vis  opid.Set
	hash uint64
}

// idChunk is how many Seen identifiers one allocation of History.ids holds.
const idChunk = 1024

// Append records a new do event whose visible set is visible, assigning its
// index: the event's delta is visible's difference from the replica's
// previous visible set. It is the form for hand-built and decoded histories;
// protocols record deltas (Record). Returned is captured by reference;
// callers must pass a snapshot they will not mutate.
func (h *History) Append(replica string, op ot.Op, returned []list.Elem, visible opid.Set) {
	var seen, unseen []opid.OpID
	cur := h.view(replica).vis
	for id := range visible {
		if !cur.Contains(id) {
			seen = append(seen, id)
		}
	}
	for id := range cur {
		if !visible.Contains(id) {
			unseen = append(unseen, id)
		}
	}
	slices.SortFunc(seen, compareIDs)
	slices.SortFunc(unseen, compareIDs)
	h.add(replica, op, returned, seen, unseen)
}

// Record implements Recorder: seen is the delta of the replica's visible set
// since its previous event. Identifiers already visible there are ignored,
// so a restored or joining replica may report its whole processed set once.
// seen is only read during the call.
func (h *History) Record(replica string, op ot.Op, returned []list.Elem, seen []opid.OpID) {
	h.add(replica, op, returned, seen, nil)
}

// add appends an event whose visible set is the replica's previous one plus
// the new identifiers of seen, minus unseen.
func (h *History) add(replica string, op ot.Op, returned []list.Elem, seen, unseen []opid.OpID) {
	v := h.view(replica)
	if cap(h.ids)-len(h.ids) < len(seen) {
		h.ids = make([]opid.OpID, 0, max(idChunk, len(seen)))
	}
	n := len(h.ids)
	for _, id := range seen {
		if !v.vis.Contains(id) {
			v.vis.Put(id)
			v.hash ^= id.Hash()
			h.ids = append(h.ids, id)
		}
	}
	var fresh []opid.OpID
	if len(h.ids) > n {
		fresh = h.ids[n:len(h.ids):len(h.ids)]
	}
	for _, id := range unseen {
		delete(v.vis, id)
		v.hash ^= id.Hash()
	}
	h.Events = append(h.Events, Event{
		Replica:     replica,
		Op:          op,
		Returned:    returned,
		Seen:        fresh,
		Unseen:      slices.Clip(unseen),
		VisibleLen:  len(v.vis),
		VisibleHash: v.hash,
		Index:       len(h.Events),
	})
}

// view returns the replica's current visible set, creating an empty one.
func (h *History) view(replica string) *view {
	v := h.views[replica]
	if v == nil {
		if h.views == nil {
			h.views = make(map[string]*view)
		}
		v = &view{vis: opid.NewSet()}
		h.views[replica] = v
	}
	return v
}

// Visible materializes the visible set of event i by replaying the deltas
// of its replica's events up to it: O(i + the set's size).
func (h *History) Visible(i int) opid.Set {
	replica, vis := h.Events[i].Replica, opid.NewSet()
	for _, e := range h.Events[:i+1] {
		if e.Replica == replica {
			e.apply(vis)
		}
	}
	return vis
}

// apply moves vis from the visible set of the replica's previous event to
// e's.
func (e *Event) apply(vis opid.Set) {
	for _, id := range e.Unseen {
		delete(vis, id)
	}
	for _, id := range e.Seen {
		vis.Put(id)
	}
}

func compareIDs(a, b opid.OpID) int {
	if a.Less(b) {
		return -1
	}
	if b.Less(a) {
		return 1
	}
	return 0
}

// Len returns the number of do events.
func (h *History) Len() int { return len(h.Events) }

// Updates returns the events whose operations are list updates (Ins/Del).
func (h *History) Updates() []Event {
	var out []Event
	for _, e := range h.Events {
		if e.Op.IsUpdate() {
			out = append(out, e)
		}
	}
	return out
}

// Elems returns elems(A): every element ever inserted in the history.
func (h *History) Elems() map[opid.OpID]list.Elem {
	out := make(map[opid.OpID]list.Elem)
	for _, e := range h.Events {
		if e.Op.Kind == ot.KindIns {
			out[e.Op.Elem.ID] = e.Op.Elem
		}
	}
	return out
}

// ByID returns the update event for the given original operation ID, if any.
func (h *History) ByID(id opid.OpID) (Event, bool) {
	for _, e := range h.Events {
		if e.Op.IsUpdate() && e.Op.ID == id {
			return e, true
		}
	}
	return Event{}, false
}

// Causal reports whether event a is causally before event b (Definition
// 4.1), derived from the recorded visibility: an update event a → b iff a's
// operation is visible to b. For read events (which have no operation ID) we
// fall back to same-replica program order.
func (h *History) Causal(a, b Event) bool {
	if a.Op.IsUpdate() && h.Visible(b.Index).Contains(a.Op.ID) {
		return true
	}
	return a.Replica == b.Replica && a.Index < b.Index
}

// Concurrent reports whether two events are concurrent (Definition 4.2).
func (h *History) Concurrent(a, b Event) bool {
	return !h.Causal(a, b) && !h.Causal(b, a)
}

// String renders the whole history, one event per line.
func (h *History) String() string {
	var b strings.Builder
	for _, e := range h.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// WellFormed performs sanity checks on a recorded history:
//
//  1. every update operation has a unique identity;
//  2. visibility is monotone per replica (later events at a replica see a
//     superset of what earlier events saw, per Definition 2.9 condition 1);
//  3. an event's visible set only references updates that occur in H
//     (message delivery only from sends, Definition 2.4); and
//  4. visibility respects the history order (condition 2 of Definition 2.9):
//     a visible update appears earlier in H.
//
// Checks 2–4 read only each event's delta: an update the replica's previous
// event saw was checked there, and the replica is monotone iff no event
// unsees one. The cost is O(events + updates seen).
//
// A non-nil error means the recorder (not the protocol) is broken.
func (h *History) WellFormed() error {
	seen := make(map[opid.OpID]int)
	for _, e := range h.Events {
		if e.Op.IsUpdate() {
			if prev, dup := seen[e.Op.ID]; dup {
				return fmt.Errorf("history: duplicate op %s at events #%d and #%d", e.Op.ID, prev, e.Index)
			}
			seen[e.Op.ID] = e.Index
		}
		for _, id := range e.Seen {
			idx, ok := seen[id]
			if !ok {
				return fmt.Errorf("history: event #%d sees unknown or future op %s", e.Index, id)
			}
			if idx >= e.Index {
				return fmt.Errorf("history: event #%d sees op %s recorded later (#%d)", e.Index, id, idx)
			}
		}
		if len(e.Unseen) > 0 {
			return fmt.Errorf("history: replica %s visibility not monotone at event #%d", e.Replica, e.Index)
		}
	}
	return nil
}

// Recorder receives do events as a protocol executes. *History implements
// it; protocols accept a nil Recorder to disable recording (benchmarks).
//
// seen is the delta of the replica's visible set: the updates it has
// processed since its previous recorded event, not counting that event's
// own operation (which becomes visible from the replica's next event). An
// identifier may be reported again; it is ignored once visible. A Recorder
// may read seen only during the call. Tracker keeps these deltas for a
// protocol's replica.
type Recorder interface {
	Record(replica string, op ot.Op, returned []list.Elem, seen []opid.OpID)
}

// LockedRecorder wraps a Recorder with a mutex so concurrently running
// replicas (the goroutine runtime in internal/sim) can share one history.
type LockedRecorder struct {
	mu sync.Mutex
	R  Recorder
}

// Record implements Recorder.
func (l *LockedRecorder) Record(replica string, op ot.Op, returned []list.Elem, seen []opid.OpID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.R.Record(replica, op, returned, seen)
}

// Tracker is a replica's side of recording: its Recorder and the updates
// the replica has processed since its previous recorded event, which are
// the seen delta of its next one. A Tracker with a nil Recorder keeps
// nothing, so an unrecorded replica pays a nil check per operation.
type Tracker struct {
	rec  Recorder
	seen []opid.OpID
}

// NewTracker returns a tracker that records into rec (nil: record nothing).
func NewTracker(rec Recorder) Tracker { return Tracker{rec: rec} }

// On reports whether events are recorded. Callers check it before building
// a returned list.
func (t *Tracker) On() bool { return t.rec != nil }

// Processed notes updates the replica has processed, its own included.
func (t *Tracker) Processed(ids ...opid.OpID) {
	if t.rec != nil {
		t.seen = append(t.seen, ids...)
	}
}

// Record records a do event with the updates processed since the previous
// one. The event's own update is held back for the next event, whether or
// not it was already noted with Processed.
func (t *Tracker) Record(replica string, op ot.Op, returned []list.Elem) {
	if t.rec == nil {
		return
	}
	own := op.IsUpdate()
	if own {
		if i := slices.Index(t.seen, op.ID); i >= 0 {
			t.seen = slices.Delete(t.seen, i, i+1)
		}
	}
	t.rec.Record(replica, op, returned, t.seen)
	t.seen = t.seen[:0]
	if own {
		t.seen = append(t.seen, op.ID)
	}
}
