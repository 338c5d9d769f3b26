package jupiter_test

import (
	"encoding/json"
	"testing"

	"jupiter"
)

// TestPublicQuickstart exercises the README quick-start path through the
// public API only.
func TestPublicQuickstart(t *testing.T) {
	cl, err := jupiter.NewCluster(jupiter.CSS, jupiter.Config{Clients: 2, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateIns(1, 'h', 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateIns(2, 'i', 0); err != nil {
		t.Fatal(err)
	}
	if err := jupiter.Quiesce(cl); err != nil {
		t.Fatal(err)
	}
	doc, err := jupiter.CheckConverged(cl)
	if err != nil {
		t.Fatal(err)
	}
	// Tie at position 0: client 2 has the higher priority, so 'i' precedes.
	if got := jupiter.Render(doc); got != "ih" {
		t.Fatalf("converged to %q, want %q", got, "ih")
	}
	h := cl.History()
	if err := jupiter.CheckConvergence(h); err != nil {
		t.Fatal(err)
	}
	if err := jupiter.CheckWeak(h); err != nil {
		t.Fatal(err)
	}
}

// TestPublicScheduleAPI drives a schedule through the facade.
func TestPublicScheduleAPI(t *testing.T) {
	cl, err := jupiter.NewCluster(jupiter.CSCW, jupiter.Config{Clients: 2, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	var sched jupiter.Schedule
	sched = sched.Generate(1).Generate(2).ServerRecv(1).ServerRecv(2).
		ClientRecv(1).ClientRecv(1).ClientRecv(2).ClientRecv(2).Read(1)
	err = jupiter.RunSchedule(cl, sched, func(c jupiter.ClientID, k int) (bool, rune, int) {
		return true, rune('a' + c), 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jupiter.CheckConverged(cl); err != nil {
		t.Fatal(err)
	}
}

// TestPublicDocConstructors covers the document constructors.
func TestPublicDocConstructors(t *testing.T) {
	d := jupiter.NewDocument()
	td := jupiter.NewTreeDocument()
	if d.Len() != 0 || td.Len() != 0 {
		t.Fatal("fresh documents must be empty")
	}
	fs := jupiter.FromString("abc", 9)
	if fs.String() != "abc" {
		t.Fatalf("FromString = %q", fs.String())
	}
	if jupiter.Render(fs.Elems()) != "abc" {
		t.Fatal("Render mismatch")
	}
}

// TestHistoryJSONRoundTrip: a recorded history survives JSON encode/decode
// and still checks identically.
func TestHistoryJSONRoundTrip(t *testing.T) {
	initial := jupiter.FromString("seed", 100)
	cl, err := jupiter.NewCluster(jupiter.CSS, jupiter.Config{Clients: 3, Initial: initial, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := jupiter.RunRandom(cl, jupiter.Workload{Seed: 5, OpsPerClient: 6, DeleteRatio: 0.4}, true); err != nil {
		t.Fatal(err)
	}
	h := cl.History()

	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back jupiter.History
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != h.Len() {
		t.Fatalf("round trip lost events: %d vs %d", back.Len(), h.Len())
	}
	if len(back.Seed) != len(h.Seed) {
		t.Fatalf("round trip lost seed: %d vs %d", len(back.Seed), len(h.Seed))
	}
	if err := back.WellFormed(); err != nil {
		t.Fatal(err)
	}
	// Checker outcomes identical.
	for i, e := range h.Events {
		b := back.Events[i]
		if e.Replica != b.Replica || e.Op != b.Op || len(e.Returned) != len(b.Returned) || !h.Visible(i).Equal(back.Visible(i)) {
			t.Fatalf("event %d differs after round trip:\n %v\n %v", i, e, b)
		}
	}
	if err := jupiter.CheckWeak(&back); err != nil {
		t.Fatal(err)
	}
	if err := jupiter.CheckConvergence(&back); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryJSONErrors covers decode error paths.
func TestHistoryJSONErrors(t *testing.T) {
	cases := []string{
		`{"events":[{"replica":"c1","op":{"kind":"wat","pos":0,"id":{"client":1,"seq":1}}}]}`,
		`{"events":[{"replica":"c1","op":{"kind":"ins","val":"ab","pos":0,"id":{"client":1,"seq":1}}}]}`,
		`{"events":[{"replica":"c1","op":{"kind":"del","pos":0,"id":{"client":1,"seq":1}}}]}`,
		`{"seed":[{"val":"","id":{"client":1,"seq":1}}],"events":[]}`,
		`not json`,
	}
	for i, c := range cases {
		var h jupiter.History
		if err := json.Unmarshal([]byte(c), &h); err == nil {
			t.Errorf("case %d: want decode error", i)
		}
	}
}

// TestPublicAsync runs the concurrent runtime through the facade.
func TestPublicAsync(t *testing.T) {
	res, err := jupiter.RunAsync(jupiter.CSS, jupiter.AsyncConfig{
		Clients: 3, OpsPerClient: 5, Seed: 1, DeleteRatio: 0.2, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 4 {
		t.Fatalf("docs = %d", len(res.Docs))
	}
	if err := jupiter.CheckWeak(res.History); err != nil {
		t.Fatal(err)
	}
}

// TestViolationSurfacing: a violation from the facade unwraps via
// AsViolation.
func TestViolationSurfacing(t *testing.T) {
	cl, err := jupiter.NewCluster(jupiter.Broken, jupiter.Config{Clients: 2, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	// Two concurrent same-position inserts diverge under the naive tie.
	if err := cl.GenerateIns(1, 'a', 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateIns(2, 'b', 0); err != nil {
		t.Fatal(err)
	}
	if err := jupiter.Quiesce(cl); err != nil {
		t.Fatal(err)
	}
	cl.Read(1)
	cl.Read(2)
	err = jupiter.CheckWeak(cl.History())
	if err == nil {
		t.Fatal("want violation")
	}
	if _, ok := jupiter.AsViolation(err); !ok {
		t.Fatalf("not a structured violation: %v", err)
	}
}
