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
// Visible is the set of original update operations (Ins/Del) causally before
// this event — vis⁻¹(e) restricted to updates, which is all three
// specifications ever inspect. It never contains the event's own operation;
// the checkers use the reflexive closure ≤vis where the specifications do.
type Event struct {
	Replica  string      // replica name, e.g. "c1" or "server"
	Op       ot.Op       // the ORIGINAL user operation (org form)
	Returned []list.Elem // the list returned to the user
	Visible  opid.Set    // update operations visible (causally before) this event
	Index    int         // position in the history H
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
type History struct {
	Events []Event
	Seed   []list.Elem
}

// Append records a new do event, assigning its index. Returned and visible
// are captured by reference; callers must pass snapshots they will not
// mutate (the protocol recorders always do).
func (h *History) Append(replica string, op ot.Op, returned []list.Elem, visible opid.Set) {
	h.Events = append(h.Events, Event{
		Replica:  replica,
		Op:       op,
		Returned: returned,
		Visible:  visible,
		Index:    len(h.Events),
	})
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
	if a.Op.IsUpdate() && b.Visible.Contains(a.Op.ID) {
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
// Checks 2–4 run per replica by difference: an update the replica's
// previous event saw was checked there, and the replica is monotone iff the
// event sees all of those.
//
// A non-nil error means the recorder (not the protocol) is broken.
func (h *History) WellFormed() error {
	seen := make(map[opid.OpID]int)
	lastVisible := make(map[string]opid.Set)
	for _, e := range h.Events {
		if e.Op.IsUpdate() {
			if prev, dup := seen[e.Op.ID]; dup {
				return fmt.Errorf("history: duplicate op %s at events #%d and #%d", e.Op.ID, prev, e.Index)
			}
			seen[e.Op.ID] = e.Index
		}
		prev, kept := lastVisible[e.Replica], 0
		for id := range e.Visible {
			if prev.Contains(id) {
				kept++ // checked at the replica's previous event
				continue
			}
			idx, ok := seen[id]
			if !ok {
				return fmt.Errorf("history: event #%d sees unknown or future op %s", e.Index, id)
			}
			if idx >= e.Index {
				return fmt.Errorf("history: event #%d sees op %s recorded later (#%d)", e.Index, id, idx)
			}
		}
		if kept < len(prev) {
			return fmt.Errorf("history: replica %s visibility not monotone at event #%d", e.Replica, e.Index)
		}
		lastVisible[e.Replica] = e.Visible
	}
	return nil
}

// Recorder receives do events as a protocol executes. *History implements
// it; protocols accept a nil Recorder to disable recording (benchmarks).
type Recorder interface {
	Record(replica string, op ot.Op, returned []list.Elem, visible opid.Set)
}

// Record implements Recorder for History.
func (h *History) Record(replica string, op ot.Op, returned []list.Elem, visible opid.Set) {
	h.Append(replica, op, returned, visible)
}

// LockedRecorder wraps a Recorder with a mutex so concurrently running
// replicas (the goroutine runtime in internal/sim) can share one history.
type LockedRecorder struct {
	mu sync.Mutex
	R  Recorder
}

// Record implements Recorder.
func (l *LockedRecorder) Record(replica string, op ot.Op, returned []list.Elem, visible opid.Set) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.R.Record(replica, op, returned, visible)
}
