package core

import (
	"strings"
	"testing"

	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

func id(c int32, s uint64) opid.OpID {
	return opid.OpID{Client: opid.ClientID(c), Seq: s}
}

func TestHistoryAppendAndQueries(t *testing.T) {
	var h History
	a := id(1, 1)
	x := id(2, 1)
	ea := list.Elem{Val: 'a', ID: a}
	ex := list.Elem{Val: 'x', ID: x}

	h.Append("c1", ot.Ins('a', 0, a), []list.Elem{ea}, opid.NewSet())
	h.Append("c2", ot.Ins('x', 0, x), []list.Elem{ex}, opid.NewSet())
	h.Append("c2", ot.Read(id(-1, 1)), []list.Elem{ex, ea}, opid.NewSet(a, x))

	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if got := len(h.Updates()); got != 2 {
		t.Fatalf("Updates = %d", got)
	}
	elems := h.Elems()
	if len(elems) != 2 || elems[a] != ea || elems[x] != ex {
		t.Fatalf("Elems = %v", elems)
	}
	if e, ok := h.ByID(a); !ok || e.Replica != "c1" {
		t.Fatalf("ByID(a) = %v, %v", e, ok)
	}
	if _, ok := h.ByID(id(9, 9)); ok {
		t.Fatal("ByID of unknown op must fail")
	}
	if !h.Events[2].IsRead() || h.Events[0].IsRead() {
		t.Error("IsRead misclassifies")
	}
	s := h.String()
	if !strings.Contains(s, "c1") || !strings.Contains(s, "Read") {
		t.Errorf("String() = %q", s)
	}
}

func TestCausalAndConcurrent(t *testing.T) {
	var h History
	a, x := id(1, 1), id(2, 1)
	h.Append("c1", ot.Ins('a', 0, a), nil, opid.NewSet())
	h.Append("c2", ot.Ins('x', 0, x), nil, opid.NewSet())      // concurrent with a
	h.Append("c2", ot.Read(id(-1, 1)), nil, opid.NewSet(a, x)) // sees both

	e0, e1, e2 := h.Events[0], h.Events[1], h.Events[2]
	if !h.Concurrent(e0, e1) {
		t.Error("e0 and e1 must be concurrent")
	}
	if !h.Causal(e0, e2) || !h.Causal(e1, e2) {
		t.Error("both inserts are causally before the read")
	}
	if h.Causal(e2, e0) {
		t.Error("read cannot precede the insert")
	}
	// Same-replica program order for reads.
	if !h.Causal(e1, e2) {
		t.Error("same-replica order must be causal")
	}
}

func TestWellFormed(t *testing.T) {
	t.Run("ok", func(t *testing.T) {
		var h History
		a := id(1, 1)
		h.Append("c1", ot.Ins('a', 0, a), nil, opid.NewSet())
		h.Append("c2", ot.Read(id(-1, 1)), nil, opid.NewSet(a))
		if err := h.WellFormed(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("duplicate op", func(t *testing.T) {
		var h History
		a := id(1, 1)
		h.Append("c1", ot.Ins('a', 0, a), nil, opid.NewSet())
		h.Append("c1", ot.Ins('b', 0, a), nil, opid.NewSet(a))
		if err := h.WellFormed(); err == nil {
			t.Fatal("want duplicate error")
		}
	})
	t.Run("unknown visible op", func(t *testing.T) {
		var h History
		h.Append("c1", ot.Read(id(-1, 1)), nil, opid.NewSet(id(9, 9)))
		if err := h.WellFormed(); err == nil {
			t.Fatal("want unknown-op error")
		}
	})
	t.Run("non-monotone visibility", func(t *testing.T) {
		var h History
		a := id(1, 1)
		h.Append("c1", ot.Ins('a', 0, a), nil, opid.NewSet())
		h.Append("c2", ot.Read(id(-1, 1)), nil, opid.NewSet(a))
		h.Append("c2", ot.Read(id(-1, 2)), nil, opid.NewSet())
		if err := h.WellFormed(); err == nil {
			t.Fatal("want monotonicity error")
		}
	})
}

func TestRecorders(t *testing.T) {
	var h History
	var rec Recorder = &h
	rec.Record("c1", ot.Ins('a', 0, id(1, 1)), nil, nil)
	if h.Len() != 1 {
		t.Fatal("History.Record did not append")
	}

	locked := &LockedRecorder{R: &h}
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func(i int) {
			locked.Record("cX", ot.Ins('b', 0, id(int32(i+2), 1)), nil, nil)
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if h.Len() != 5 {
		t.Fatalf("Len = %d, want 5", h.Len())
	}
	// Indexes must be consistent.
	for i, e := range h.Events {
		if e.Index != i {
			t.Fatalf("event %d has index %d", i, e.Index)
		}
	}
}

func TestScheduleBuilders(t *testing.T) {
	var s Schedule
	s = s.Generate(1).ServerRecv(1).ClientRecv(2).Read(2)
	want := []StepKind{StepGenerate, StepServer, StepClient, StepRead}
	if len(s) != len(want) {
		t.Fatalf("len = %d", len(s))
	}
	for i, k := range want {
		if s[i].Kind != k {
			t.Errorf("step %d kind = %v, want %v", i, s[i].Kind, k)
		}
	}
	if s[0].Client != 1 || s[2].Client != 2 {
		t.Error("clients wrong")
	}
}

func TestStepKindString(t *testing.T) {
	pairs := map[StepKind]string{
		StepGenerate: "generate",
		StepServer:   "server-recv",
		StepClient:   "client-recv",
		StepRead:     "read",
		StepKind(77): "StepKind(77)",
	}
	for k, want := range pairs {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// TestVisibilityDeltas: a history stores each event's visible set as a
// delta against the replica's previous event, ignores identifiers already
// visible there, and keeps each set's size and hash.
func TestVisibilityDeltas(t *testing.T) {
	var h History
	a, b := id(1, 1), id(2, 1)
	h.Record("c1", ot.Ins('a', 0, a), nil, nil)
	h.Record("c2", ot.Ins('b', 0, b), nil, []opid.OpID{a, a})
	h.Record("c2", ot.Read(id(-1, 1)), nil, []opid.OpID{a, b}) // a again: a restored replica
	h.Append("c2", ot.Read(id(-1, 2)), nil, opid.NewSet(b))    // a unseen
	want := []opid.Set{opid.NewSet(), opid.NewSet(a), opid.NewSet(a, b), opid.NewSet(b)}
	for i, e := range h.Events {
		vis := h.Visible(i)
		if !vis.Equal(want[i]) || e.VisibleLen != len(want[i]) || e.VisibleHash != want[i].Hash() {
			t.Fatalf("event %d: visible %s (len %d, hash %x), want %s", i, vis, e.VisibleLen, e.VisibleHash, want[i])
		}
	}
	if s := h.Events[2].Seen; len(s) != 1 || s[0] != b {
		t.Fatalf("event 2 sees %v, want only the new %s", s, b)
	}
	if e := h.Events[3]; len(e.Seen) != 0 || len(e.Unseen) != 1 || e.Unseen[0] != a {
		t.Fatalf("event 3: seen %v unseen %v", e.Seen, e.Unseen)
	}
	if err := h.WellFormed(); err == nil || !strings.Contains(err.Error(), "not monotone") {
		t.Fatalf("WellFormed = %v, want the shrinking set reported", err)
	}
}

// TestTracker: a tracker hands each event the updates processed since the
// previous one, holding the event's own update back for the next.
func TestTracker(t *testing.T) {
	var h History
	tr := NewTracker(&h)
	a, x := id(1, 1), id(2, 1)
	tr.Processed(x, a) // a remote update, then the replica's own
	tr.Record("c1", ot.Ins('a', 0, a), nil)
	tr.Record("c1", ot.Read(id(-1, 1)), nil)
	if s := h.Events[0].Seen; len(s) != 1 || s[0] != x {
		t.Fatalf("own event sees %v, want %s only", s, x)
	}
	if s := h.Events[1].Seen; len(s) != 1 || s[0] != a {
		t.Fatalf("next event sees %v, want %s", s, a)
	}
	off := NewTracker(nil)
	off.Processed(x)
	off.Record("c1", ot.Read(id(-1, 2)), nil)
	if off.On() || off.seen != nil {
		t.Fatal("a tracker without a recorder must keep nothing")
	}
}
