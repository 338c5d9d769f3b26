package css_test

import (
	"encoding/json"
	"strings"
	"testing"

	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/statespace"
)

// TestSaveRestoreMidSession suspends a client with PENDING (unacknowledged)
// operations and in-flight remote traffic, restores it, and finishes the
// session: everything converges and the restored space is structurally
// identical to the saved one.
func TestSaveRestoreMidSession(t *testing.T) {
	r := newJoinRig(t, 2)

	// Build some shared history.
	r.typeAt(1, 'a', 0)
	r.pump()
	r.typeAt(2, 'b', 1)
	r.pump()

	// c2 generates two ops that stay UNACKNOWLEDGED (not delivered to the
	// server yet), while c1's next op is already queued toward c2.
	m1, err := r.clients[2].GenerateIns('X', 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.clients[2].GenerateIns('Y', 1)
	if err != nil {
		t.Fatal(err)
	}
	r.typeAt(1, 'z', 2) // queued broadcast for c2

	savedRender := r.clients[2].Space().Render()
	data, err := r.clients[2].Save()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := css.RestoreClient(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.ID() != 2 {
		t.Fatalf("restored id %v", restored.ID())
	}
	if got := restored.Space().Render(); got != savedRender {
		t.Fatalf("space differs after restore:\n%s\nvs\n%s", got, savedRender)
	}
	if got, want := list.Render(restored.Document()), list.Render(r.clients[2].Document()); got != want {
		t.Fatalf("doc %q, want %q", got, want)
	}

	// Swap the restored client in and finish the session: deliver its
	// pending ops to the server, then drain everything.
	r.clients[2] = restored
	r.send(m1)
	r.send(m2)
	r.pump()
	final := r.converged()
	if len(final) != 5 {
		t.Fatalf("final %q, want 5 elements", final)
	}

	// The restored client keeps working.
	r.typeAt(2, '!', 0)
	r.pump()
	r.converged()
}

// TestSaveRestoreWithCompactContexts round-trips a compact-context client.
func TestSaveRestoreWithCompactContexts(t *testing.T) {
	ids := []opid.ClientID{1, 2}
	srv := css.NewServer(ids, nil, nil)
	srv.UseCompactContexts()
	c1 := css.NewClient(1, nil, nil)
	c1.UseCompactContexts()
	c2 := css.NewClient(2, nil, nil)
	c2.UseCompactContexts()

	pump := func(m css.ClientMsg) {
		t.Helper()
		outs, err := srv.Receive(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			target := c1
			if o.To == 2 {
				target = c2
			}
			if err := target.Receive(o.Msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, err := c1.GenerateIns('a', 0)
	if err != nil {
		t.Fatal(err)
	}
	pump(m)
	m, err = c2.GenerateIns('b', 1)
	if err != nil {
		t.Fatal(err)
	}
	pump(m)

	data, err := c2.Save()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := css.RestoreClient(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2 = restored

	// The restored client still speaks compact contexts correctly.
	m, err = c2.GenerateIns('c', 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Compact == nil || m.Ctx != nil {
		t.Fatal("restored client lost compact mode")
	}
	pump(m)
	if got := list.Render(srv.Document()); got != "abc" {
		t.Fatalf("server %q", got)
	}
	if got := list.Render(c1.Document()); got != "abc" {
		t.Fatalf("c1 %q", got)
	}
}

// TestServerSaveRestoreMidSession snapshots the SERVER mid-session — with a
// GC frontier already advanced, a tail past it, and client ops still in flight
// — restores it, and finishes the session through the restored server. This
// is the crash-recovery path of a jupiterd restart from disk.
func TestServerSaveRestoreMidSession(t *testing.T) {
	r := newJoinRig(t, 2)
	r.typeAt(1, 'a', 0)
	r.pump()
	r.typeAt(2, 'b', 1)
	r.pump()
	r.typeAt(1, 'c', 2)
	r.pump()
	outs, err := r.srv.AdvanceFrontier()
	if err != nil {
		t.Fatal(err)
	}
	r.fan(outs)
	r.pump()
	// One more serialized op past the frontier keeps the tail non-empty.
	r.typeAt(2, 'd', 3)
	r.pump()

	// c1 generates an op the saved server never saw — it must be deliverable
	// to the RESTORED server.
	inFlight, err := r.clients[1].GenerateIns('X', 0)
	if err != nil {
		t.Fatal(err)
	}

	data, err := r.srv.Save()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := css.RestoreServer(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.SeqOf() != r.srv.SeqOf() {
		t.Fatalf("SeqOf %d, want %d", restored.SeqOf(), r.srv.SeqOf())
	}
	if got, want := restored.Serialized(), r.srv.Serialized(); len(got) != len(want) {
		t.Fatalf("serialized %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("serialized[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
	if got, want := list.Render(restored.Document()), list.Render(r.srv.Document()); got != want {
		t.Fatalf("doc %q, want %q", got, want)
	}
	if got := restored.Space().Render(); got != r.srv.Space().Render() {
		t.Fatalf("space differs after restore:\n%s\nvs\n%s", got, r.srv.Space().Render())
	}

	// The restored server picks up exactly where the saved one stopped.
	r.srv = restored
	r.send(inFlight)
	r.pump()
	r.typeAt(2, '!', 0)
	r.pump()
	r.converged()

	// The join path still works off the restored snapshot state.
	snap := restored.Snapshot()
	joiner, err := css.NewClientFromSnapshot(3, snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.AddClient(3); err != nil {
		t.Fatal(err)
	}
	r.clients[3] = joiner
	r.typeAt(3, '?', 0)
	r.pump()
	r.converged()
}

// TestRestoreServerRejectsCorruptState: the blob is outside input. Truncated,
// malformed or inconsistent saves fail with an error naming the field at
// fault — never a panic, an index out of range or a half-restored serializer.
// The format has one copy of everything (the frontier is its identifier list,
// the tail's positions follow from it), so a frontier index past the order or
// a tail of the wrong length cannot be written down; a blob that tries, or one
// of the earlier format, is refused at the first field this format lacks.
func TestRestoreServerRejectsCorruptState(t *testing.T) {
	r := newJoinRig(t, 2)
	r.typeAt(1, 'a', 0)
	r.pump()
	good, err := r.srv.Save()
	if err != nil {
		t.Fatal(err)
	}
	const (
		head  = `{"clients":[{"client":1,"remote":0,"own":1}],"frontier":[],"frontierDoc":[],"tail":[`
		op    = `{"kind":"ins","val":"a","pos":0,"id":{"client":1,"seq":1},"pri":1}`
		entry = `{"op":` + op + `,"remote":0}`
	)
	cases := map[string]struct{ blob, names string }{
		"truncated": {string(good[:len(good)/2]), "restore server"},
		"not json":  {"\x00\x01", "restore server"},
		"earlier format": {`{"clients":[1],"nextSeq":0,"known":[{"client":1,"ops":[]}],"space":{"states":{"":{"ops":[]}},"initial":"","final":""}}`,
			"clients"},
		"earlier format, no clients":    {`{"nextSeq":3,"serialized":[{"client":1,"seq":1}],"space":{}}`, `"nextSeq"`},
		"frontier index beside the log": {`{"frontierAt":7,"frontier":[],"tail":[]}`, `"frontierAt"`},
		"tail op of no kind":            {head + `{"op":{"kind":"zap","id":{"client":1,"seq":1}},"remote":0}]}`, "tail[0].op"},
		"tail context past the log":     {head + `{"op":` + op + `,"remote":5}]}`, "tail[0]"},
		"tail context below zero":       {head + `{"op":` + op + `,"remote":-1}]}`, "tail[0]"},
		"tail op with a gap before it":  {head + `{"op":{"kind":"ins","val":"a","pos":0,"id":{"client":1,"seq":9}},"remote":0}]}`, "tail[0]"},
		"tail op from a huge own seq":   {head + `{"op":{"kind":"ins","val":"a","pos":0,"id":{"client":1,"seq":4611686018427387904}},"remote":0}]}`, "tail[0]"},
		"tail op twice":                 {head + entry + `,` + entry + `]}`, "tail[1]"},
		"tail op that cannot execute":   {head + `{"op":{"kind":"ins","val":"a","pos":4,"id":{"client":1,"seq":1}},"remote":0}]}`, "tail[0]"},
		"frontier document element":     {`{"frontierDoc":[{"val":"xy","id":{"client":1,"seq":1}}]}`, "frontierDoc"},
		"client listed twice":           {`{"clients":[{"client":1},{"client":1}]}`, "clients[1]"},
	}
	for name, c := range cases {
		_, err := css.RestoreServer([]byte(c.blob), nil)
		if err == nil {
			t.Errorf("%s: restore accepted corrupt state", name)
		} else if !strings.Contains(err.Error(), c.names) {
			t.Errorf("%s: error %q does not name %s", name, err, c.names)
		}
	}
	if _, err := css.RestoreServer([]byte(head+entry+`]}`), nil); err != nil {
		t.Errorf("the well-formed blob the cases are cut from: %v", err)
	}
}

// TestSpaceJSONRoundTrip round-trips a state-space with pending keys and
// checks renders and order keys survive.
func TestSpaceJSONRoundTrip(t *testing.T) {
	cl := css.NewClient(7, list.FromString("hi", 50), nil)
	if _, err := cl.GenerateIns('x', 1); err != nil {
		t.Fatal(err)
	}
	sp := cl.Space()

	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	back := statespace.New(nil)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Render() != sp.Render() {
		t.Fatalf("render differs:\n%s\nvs\n%s", back.Render(), sp.Render())
	}
	id := opid.OpID{Client: 7, Seq: 1}
	k, ok := back.OrderKeyOf(id)
	if !ok || k != statespace.PendingKey {
		t.Fatalf("pending key lost: %v %v", k, ok)
	}
	// Promotion still works on the reloaded space.
	if err := back.Promote(id, 3); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceJSONErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"states":{"bad":{"ops":[{"client":1,"seq":1}]}},"initial":"bad","final":"bad"}`,
		`{"states":{},"initial":"x","final":"x"}`,
	}
	for i, c := range cases {
		s := statespace.New(nil)
		if err := json.Unmarshal([]byte(c), s); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}
