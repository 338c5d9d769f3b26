package css_test

import (
	"errors"
	"strings"
	"testing"

	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/sim"
	"jupiter/internal/spec"
	"jupiter/internal/statespace"
)

// newCSS builds a deterministic CSS cluster with recording and full
// state-space verification enabled.
func newCSS(t *testing.T, n int, initial list.Doc) sim.Cluster {
	t.Helper()
	cl, err := sim.NewCluster(sim.CSS, sim.Config{
		Clients:      n,
		Initial:      initial,
		Record:       true,
		SpaceOptions: []statespace.Option{statespace.WithCP1Check()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func docString(t *testing.T, cl sim.Cluster, replica string) string {
	t.Helper()
	d, err := cl.Document(replica)
	if err != nil {
		t.Fatal(err)
	}
	return list.Render(d)
}

// TestFigure2And4 drives the CSS protocol through the schedule of Figure 2
// (three pairwise-concurrent operations, server order o1 ⇒ o2 ⇒ o3) and
// checks the narrative of Example 6.2 and the Proposition 6.6 illustration
// of Figure 4: every replica ends with the SAME n-ary ordered state-space,
// each having walked a different path through it.
func TestFigure2And4(t *testing.T) {
	cl := newCSS(t, 3, nil)
	c1, c2, c3 := opid.ClientID(1), opid.ClientID(2), opid.ClientID(3)

	// All three clients generate concurrently (empty contexts).
	if err := cl.GenerateIns(c1, 'a', 0); err != nil { // o1
		t.Fatal(err)
	}
	if err := cl.GenerateIns(c2, 'b', 0); err != nil { // o2
		t.Fatal(err)
	}
	if err := cl.GenerateIns(c3, 'c', 0); err != nil { // o3
		t.Fatal(err)
	}

	// Example 6.2: before receiving anything, c3 holds its own op only.
	if got := docString(t, cl, "c3"); got != "c" {
		t.Fatalf("c3 after generating o3: %q, want %q", got, "c")
	}

	// The server serializes o1, o2, o3 in that order.
	for _, c := range []opid.ClientID{c1, c2, c3} {
		if _, err := cl.DeliverToServer(c); err != nil {
			t.Fatal(err)
		}
	}
	if got := docString(t, cl, "server"); got != "cba" {
		t.Fatalf("server after serializing all: %q, want %q", got, "cba")
	}

	// c3 receives o1: transformed against the pending o3 (OT(o1, o3)),
	// leading to state σ13.
	if _, err := cl.DeliverToClient(c3); err != nil {
		t.Fatal(err)
	}
	if got := docString(t, cl, "c3"); got != "ca" {
		t.Fatalf("c3 after receiving o1: %q, want %q", got, "ca")
	}

	// c3 receives o2: the original o2 (footnote 7!) is transformed with
	// ⟨o1, o3{o1}⟩ per Example 6.2, reaching σ123.
	if _, err := cl.DeliverToClient(c3); err != nil {
		t.Fatal(err)
	}
	if got := docString(t, cl, "c3"); got != "cba" {
		t.Fatalf("c3 after receiving o2: %q, want %q", got, "cba")
	}

	// Drain everything else.
	if err := sim.Quiesce(cl); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.CheckConverged(cl); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"server", "c1", "c2", "c3"} {
		if got := docString(t, cl, r); got != "cba" {
			t.Errorf("%s final doc %q, want %q", r, got, "cba")
		}
	}

	// Proposition 6.6 / Figure 4: all four state-spaces are identical.
	spaces, ok := sim.SpacesOf(cl)
	if !ok {
		t.Fatal("not a CSS cluster")
	}
	ref := spaces[0].Render()
	for i, sp := range spaces {
		if sp.Render() != ref {
			t.Fatalf("space %d differs from server's:\n%s\nvs\n%s", i, sp.Render(), ref)
		}
		if err := sp.CheckInvariants(3, true); err != nil {
			t.Errorf("space %d: %v", i, err)
		}
		if err := sp.CheckPairwiseCompatibility(); err != nil {
			t.Errorf("space %d: %v", i, err)
		}
	}
	// Figure 4's final space: {}, {1}, {2}, {3}, {1,2}, {1,3}, {1,2,3} —
	// 7 states. (Not the full 2³ lattice: {2,3} is never constructed,
	// because OTs only ever run along leftmost transitions.)
	if got := spaces[0].NumStates(); got != 7 {
		t.Errorf("final space has %d states, want 7:\n%s", got, spaces[0].Render())
	}
	if _, ok := spaces[0].StateOf(opid.NewSet(
		opid.OpID{Client: 2, Seq: 1}, opid.OpID{Client: 3, Seq: 1})); ok {
		t.Error("state {2,3} should not exist")
	}
}

// TestFigure6 drives the CSS protocol through the more involved schedule of
// Figure 6 (Figure 2 of the CSCW'14 paper): o1 from c1; o2, o3 from c2 in
// sequence; o4 from c3 after receiving o1. Server order o1 ⇒ o2 ⇒ o3 ⇒ o4.
// The resulting single state-space must contain exactly the states shown in
// Figure 6(b): 0, 1, 2, 12, 23, 123, 14, 124, 1234.
func TestFigure6(t *testing.T) {
	cl := newCSS(t, 3, nil)
	c1, c2, c3 := opid.ClientID(1), opid.ClientID(2), opid.ClientID(3)

	// c1 generates o1; the server serializes it; c3 receives it.
	if err := cl.GenerateIns(c1, 'a', 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DeliverToServer(c1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DeliverToClient(c3); err != nil { // c3 gets broadcast(o1)
		t.Fatal(err)
	}
	if got := docString(t, cl, "c3"); got != "a" {
		t.Fatalf("c3 after o1: %q", got)
	}

	// c2 generates o2 then o3 (still hasn't received o1).
	if err := cl.GenerateIns(c2, 'b', 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateIns(c2, 'c', 1); err != nil {
		t.Fatal(err)
	}
	// c3 generates o4 with o1 in its context.
	if err := cl.GenerateIns(c3, 'd', 1); err != nil {
		t.Fatal(err)
	}

	// Server serializes o2, o3, then o4.
	if _, err := cl.DeliverToServer(c2); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DeliverToServer(c2); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DeliverToServer(c3); err != nil {
		t.Fatal(err)
	}

	if err := sim.Quiesce(cl); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.CheckConverged(cl); err != nil {
		t.Fatal(err)
	}

	spaces, _ := sim.SpacesOf(cl)
	ref := spaces[0]

	// Exactly the 9 states of Figure 6(b).
	wantStates := []string{
		"{}",
		"{c1:1}",
		"{c2:1}",
		"{c1:1,c2:1}",
		"{c2:1,c2:2}",
		"{c1:1,c2:1,c2:2}",
		"{c1:1,c3:1}",
		"{c1:1,c2:1,c3:1}",
		"{c1:1,c2:1,c2:2,c3:1}",
	}
	if ref.NumStates() != len(wantStates) {
		t.Fatalf("space has %d states, want %d:\n%s", ref.NumStates(), len(wantStates), ref.Render())
	}
	have := make(map[string]bool)
	for _, st := range ref.States() {
		have[st.String()] = true
	}
	for _, w := range wantStates {
		if !have[w] {
			t.Errorf("missing state %s\n%s", w, ref.Render())
		}
	}

	// All replicas share the space.
	for i, sp := range spaces {
		if sp.Render() != ref.Render() {
			t.Errorf("space %d differs", i)
		}
	}

	// The recorded history satisfies convergence and the weak list spec.
	h := cl.History()
	if err := h.WellFormed(); err != nil {
		t.Fatal(err)
	}
	if err := spec.CheckConvergence(h); err != nil {
		t.Error(err)
	}
	if err := spec.CheckWeak(h); err != nil {
		t.Error(err)
	}
}

// TestFigure7StrongViolation reproduces Theorem 8.1's counterexample
// (Figure 7): the CSS protocol run produces the lists "ax" (at c2), "xb"
// (at c3) and "ba" (finally everywhere), whose list order contains the
// cycle (a,x), (x,b), (b,a). The weak list specification holds; the strong
// one cannot.
func TestFigure7StrongViolation(t *testing.T) {
	cl := newCSS(t, 3, nil)
	c1, c2, c3 := opid.ClientID(1), opid.ClientID(2), opid.ClientID(3)

	// op1 = Ins(x,0) by c1, serialized and delivered everywhere.
	if err := cl.GenerateIns(c1, 'x', 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DeliverToServer(c1); err != nil {
		t.Fatal(err)
	}
	if err := sim.Quiesce(cl); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"c1", "c2", "c3"} {
		if got := docString(t, cl, r); got != "x" {
			t.Fatalf("%s after op1: %q, want %q", r, got, "x")
		}
	}

	// Concurrently: c1 deletes x, c2 inserts a at 0, c3 inserts b at 1.
	if err := cl.GenerateDel(c1, 0); err != nil { // op2 = Del(x,0)
		t.Fatal(err)
	}
	if err := cl.GenerateIns(c2, 'a', 0); err != nil { // op3 = Ins(a,0)
		t.Fatal(err)
	}
	if err := cl.GenerateIns(c3, 'b', 1); err != nil { // op4 = Ins(b,1)
		t.Fatal(err)
	}

	// The paper's local views: w13 = "ax" at c2, w14 = "xb" at c3.
	if got := docString(t, cl, "c2"); got != "ax" {
		t.Fatalf("w13 at c2 = %q, want %q", got, "ax")
	}
	cl.Read(c2)
	if got := docString(t, cl, "c3"); got != "xb" {
		t.Fatalf("w14 at c3 = %q, want %q", got, "xb")
	}
	cl.Read(c3)

	// Server order: op2 (c1), op3 (c2), op4 (c3).
	for _, c := range []opid.ClientID{c1, c2, c3} {
		if _, err := cl.DeliverToServer(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Quiesce(cl); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.CheckConverged(cl); err != nil {
		t.Fatal(err)
	}
	// Final list everywhere: "ba".
	for _, r := range []string{"server", "c1", "c2", "c3"} {
		if got := docString(t, cl, r); got != "ba" {
			t.Fatalf("%s final %q, want %q", r, got, "ba")
		}
	}
	for _, c := range cl.Clients() {
		cl.Read(c)
	}
	cl.ReadServer()

	h := cl.History()
	if err := h.WellFormed(); err != nil {
		t.Fatal(err)
	}
	if err := spec.CheckConvergence(h); err != nil {
		t.Errorf("convergence should hold: %v", err)
	}
	if err := spec.CheckWeak(h); err != nil {
		t.Errorf("weak list specification should hold: %v", err)
	}
	err := spec.CheckStrong(h)
	if err == nil {
		t.Fatal("strong list specification should be violated (Theorem 8.1)")
	}
	v, ok := spec.AsViolation(err)
	if !ok || v.Spec != spec.StrongList {
		t.Fatalf("unexpected violation: %v", err)
	}
	if !strings.Contains(v.Reason, "cycle") {
		t.Errorf("violation should report the list-order cycle, got: %s", v.Reason)
	}

	// Paths through the shared space match Figure 7(b): the replicas all
	// end at state {1,2,3,4}, whose list is "ba".
	spaces, _ := sim.SpacesOf(cl)
	final := spaces[0].Final()
	if got := final.Doc().String(); got != "ba" {
		t.Errorf("final state doc %q, want %q", got, "ba")
	}
	if final.Len() != 4 {
		t.Errorf("final state %s, want 4 ops", final)
	}
}

// TestAckPromotes verifies the acknowledgement path: after quiescing, no
// transition in any client's space still carries the pending order key.
func TestAckPromotes(t *testing.T) {
	cl := newCSS(t, 2, nil)
	if err := cl.GenerateIns(1, 'a', 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateIns(2, 'b', 0); err != nil {
		t.Fatal(err)
	}
	if err := sim.Quiesce(cl); err != nil {
		t.Fatal(err)
	}
	spaces, _ := sim.SpacesOf(cl)
	for i, sp := range spaces {
		for _, st := range sp.States() {
			for _, e := range st.Edges() {
				if e.OrderKey() == statespace.PendingKey {
					t.Errorf("space %d: edge %s still pending after quiesce", i, e)
				}
			}
		}
	}
}

// TestServerDirectAPI exercises the replica-level API without the harness.
func TestServerDirectAPI(t *testing.T) {
	ids := []opid.ClientID{1, 2}
	srv := css.NewServer(ids, nil, nil)
	cl1 := css.NewClient(1, nil, nil)
	cl2 := css.NewClient(2, nil, nil)

	m1, err := cl1.GenerateIns('h', 0)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := srv.Receive(m1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("server produced %d messages, want 2 (ack + broadcast)", len(outs))
	}
	var broadcasts, acks int
	for _, o := range outs {
		switch o.Msg.Kind {
		case css.MsgBroadcast:
			broadcasts++
			if o.To != 2 {
				t.Errorf("broadcast to %v, want c2", o.To)
			}
			if err := cl2.Receive(o.Msg); err != nil {
				t.Fatal(err)
			}
		case css.MsgAck:
			acks++
			if o.To != 1 {
				t.Errorf("ack to %v, want c1", o.To)
			}
			if err := cl1.Receive(o.Msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if broadcasts != 1 || acks != 1 {
		t.Fatalf("got %d broadcasts, %d acks", broadcasts, acks)
	}
	if got := list.Render(cl2.Document()); got != "h" {
		t.Fatalf("c2 doc %q", got)
	}
	if srv.SeqOf() != 1 {
		t.Fatalf("server seq = %d", srv.SeqOf())
	}

	// Unknown message kind errors.
	if err := cl1.Receive(css.ServerMsg{Kind: 99}); err == nil {
		t.Error("unknown message kind must error")
	}

	// Deleting from an empty position errors.
	if _, err := cl1.GenerateDel(5); err == nil {
		t.Error("out-of-range delete must error")
	}
	if !errors.Is(err, nil) {
		_ = err
	}
}

// TestInitialDocument checks replicas seeded with a non-empty document.
func TestInitialDocument(t *testing.T) {
	base := list.FromString("efecte", 100)
	cl, err := sim.NewCluster(sim.CSS, sim.Config{Clients: 2, Initial: base, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1's scenario run through the full protocol.
	if err := cl.GenerateIns(1, 'f', 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.GenerateDel(2, 5); err != nil {
		t.Fatal(err)
	}
	if err := sim.Quiesce(cl); err != nil {
		t.Fatal(err)
	}
	doc, err := sim.CheckConverged(cl)
	if err != nil {
		t.Fatal(err)
	}
	if got := list.Render(doc); got != "effect" {
		t.Fatalf("converged to %q, want %q", got, "effect")
	}
}

// TestReceiveRejectionAtomic pins down that a rejected operation leaves the
// server serialization untouched. An operation whose context references an
// operation the server never saw (a transport dropped the predecessor frame
// while the stream stayed up) must fail without consuming a sequence number:
// SeqOf is the count of serialized operations, and convergence checkers
// compare it against generated-op totals.
func TestReceiveRejectionAtomic(t *testing.T) {
	srv := css.NewServer([]opid.ClientID{1, 2}, nil, nil)
	cl1 := css.NewClient(1, nil, nil)

	m1, err := cl1.GenerateIns('a', 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cl1.GenerateIns('b', 1)
	if err != nil {
		t.Fatal(err)
	}

	// Deliver m2 without m1: its context names m1's operation, which no
	// server state contains.
	if _, err := srv.Receive(m2); err == nil {
		t.Fatal("gapped-context operation must be rejected")
	}
	if got := srv.SeqOf(); got != 0 {
		t.Fatalf("rejected op consumed a sequence number: SeqOf = %d, want 0", got)
	}

	// The same messages in order integrate cleanly afterwards.
	if _, err := srv.Receive(m1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Receive(m2); err != nil {
		t.Fatal(err)
	}
	if got := srv.SeqOf(); got != 2 {
		t.Fatalf("SeqOf = %d, want 2", got)
	}
	if got := list.Render(srv.Document()); got != "ab" {
		t.Fatalf("server doc %q, want %q", got, "ab")
	}
}

// TestGenerateRejectionAtomic pins down that a refused local edit leaves the
// client replica untouched. An out-of-range position must fail before a
// sequence number is consumed or a pending transition saved; otherwise the
// next valid operation carries a sequence the server sees as a gap and a
// context naming an operation that never existed.
func TestGenerateRejectionAtomic(t *testing.T) {
	srv := css.NewServer([]opid.ClientID{1}, nil, nil)
	cl := css.NewClient(1, nil, nil)
	m1, err := cl.GenerateIns('a', 0)
	if err != nil {
		t.Fatal(err)
	}
	states, edges := cl.Space().NumStates(), cl.Space().NumEdges()

	if _, err := cl.GenerateIns('x', 5); !errors.Is(err, list.ErrPosOutOfRange) {
		t.Fatalf("insert past the end: %v, want ErrPosOutOfRange", err)
	}
	if _, err := cl.GenerateIns('x', -1); !errors.Is(err, list.ErrPosOutOfRange) {
		t.Fatalf("insert at -1: %v, want ErrPosOutOfRange", err)
	}
	if _, err := cl.GenerateDel(1); !errors.Is(err, list.ErrPosOutOfRange) {
		t.Fatalf("delete past the end: %v, want ErrPosOutOfRange", err)
	}
	if got := cl.Space().NumStates(); got != states {
		t.Fatalf("refused edits added states: %d, want %d", got, states)
	}
	if got := cl.Space().NumEdges(); got != edges {
		t.Fatalf("refused edits added edges: %d, want %d", got, edges)
	}
	if got := list.Render(cl.Document()); got != "a" {
		t.Fatalf("refused edits changed the document: %q, want %q", got, "a")
	}

	// The next valid operation takes the next sequence number, and the
	// server accepts the pair with no gap.
	m2, err := cl.GenerateIns('b', 1)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Op.ID.Seq != m1.Op.ID.Seq+1 {
		t.Fatalf("refused edits consumed sequence numbers: next op is seq %d after %d", m2.Op.ID.Seq, m1.Op.ID.Seq)
	}
	for _, m := range []css.ClientMsg{m1, m2} {
		if _, err := srv.Receive(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := list.Render(srv.Document()); got != "ab" {
		t.Fatalf("server doc %q, want %q", got, "ab")
	}
}
