package css_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"jupiter/internal/core"
	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/sim"
)

// The server keeps the serialization order once and derives the rest from it.
// These tests hold that derivation against an independent account of the same
// run: the delivery order as the harness saw it, and the set-based frontier
// bookkeeping the server used to keep (one opid.Set per client, probed per
// identifier), over sim.Explore's exhaustive small-scope schedules and seeded
// random ones, at every server step.

// logRig drives a bare css.Server and its clients over FIFO queues one step
// at a time.
type logRig struct {
	compact  bool
	srv      *css.Server
	ids      []opid.ClientID
	clients  map[opid.ClientID]*css.Client
	toServer map[opid.ClientID][]css.ClientMsg
	toClient map[opid.ClientID][]css.ServerMsg

	// The reference: operations in the order the server was handed them, and
	// per client every identifier a message of its has named.
	delivered []opid.OpID
	named     map[opid.ClientID]opid.Set
	sentCtx   map[opid.OpID]opid.Set // context of each generated operation

	// afterStep, when set, runs after every delivery, frontier advance and
	// join.
	afterStep func(*logRig) error
}

func (r *logRig) stepped() error {
	if r.afterStep == nil {
		return nil
	}
	return r.afterStep(r)
}

func newLogRig(n int, compact bool) *logRig {
	r := &logRig{
		compact:  compact,
		clients:  make(map[opid.ClientID]*css.Client),
		toServer: make(map[opid.ClientID][]css.ClientMsg),
		toClient: make(map[opid.ClientID][]css.ServerMsg),
		named:    make(map[opid.ClientID]opid.Set),
		sentCtx:  make(map[opid.OpID]opid.Set),
	}
	for i := 1; i <= n; i++ {
		id := opid.ClientID(i)
		r.ids = append(r.ids, id)
		r.clients[id] = css.NewClient(id, nil, nil)
		r.named[id] = opid.NewSet()
	}
	r.srv = css.NewServer(r.ids, nil, nil)
	if compact {
		r.srv.UseCompactContexts()
		for _, c := range r.clients {
			c.UseCompactContexts()
		}
	}
	return r
}

// generate makes client id perform one edit: an insert of val at frac of its
// document, or (del, on a non-empty document) a delete there.
func (r *logRig) generate(id opid.ClientID, del bool, val rune, frac float64) error {
	c := r.clients[id]
	ctx := c.Space().Final().Ops()
	n := c.DocLen()
	var msg css.ClientMsg
	var err error
	if del && n > 0 {
		msg, err = c.GenerateDel(min(int(frac*float64(n)), n-1))
	} else {
		msg, err = c.GenerateIns(val, min(int(frac*float64(n+1)), n))
	}
	if err != nil {
		return err
	}
	r.sentCtx[msg.Op.ID] = ctx
	r.toServer[id] = append(r.toServer[id], msg)
	return nil
}

func (r *logRig) fan(outs []css.Addressed) {
	for _, o := range outs {
		r.toClient[o.To] = append(r.toClient[o.To], o.Msg)
	}
}

// serverRecv hands the server the next message of id's channel.
func (r *logRig) serverRecv(id opid.ClientID) error {
	msg := r.toServer[id][0]
	r.toServer[id] = r.toServer[id][1:]
	outs, err := r.srv.Receive(msg)
	if err != nil {
		return err
	}
	r.fan(outs)
	r.delivered = append(r.delivered, msg.Op.ID)
	for op := range r.sentCtx[msg.Op.ID] {
		r.named[id].Put(op)
	}
	r.named[id].Put(msg.Op.ID)
	return r.stepped()
}

func (r *logRig) clientRecv(id opid.ClientID) error {
	msg := r.toClient[id][0]
	r.toClient[id] = r.toClient[id][1:]
	if err := r.clients[id].Receive(msg); err != nil {
		return err
	}
	return r.stepped()
}

func (r *logRig) advance() error {
	outs, err := r.srv.AdvanceFrontier()
	r.fan(outs)
	if err != nil {
		return err
	}
	return r.stepped()
}

// join adds a late joiner from the server's snapshot; it edits like the rest
// from then on.
func (r *logRig) join() error {
	id := opid.ClientID(len(r.ids) + 1)
	c, err := css.NewClientFromSnapshot(id, r.srv.Snapshot(), nil)
	if err != nil {
		return err
	}
	if r.compact {
		c.UseCompactContexts()
	}
	if err := r.srv.AddClient(id); err != nil {
		return err
	}
	r.ids = append(r.ids, id)
	r.clients[id] = c
	r.named[id] = opid.NewSet(r.delivered...)
	return r.stepped()
}

// quiesce delivers everything in flight.
func (r *logRig) quiesce() error {
	for progress := true; progress; {
		progress = false
		for _, id := range r.ids {
			for len(r.toServer[id]) > 0 {
				if err := r.serverRecv(id); err != nil {
					return err
				}
				progress = true
			}
			for len(r.toClient[id]) > 0 {
				if err := r.clientRecv(id); err != nil {
					return err
				}
				progress = true
			}
		}
	}
	return nil
}

// refFrontier is the set-based stable frontier: the longest prefix of the
// delivery order every client has named in full.
func (r *logRig) refFrontier() opid.Set {
	f := opid.NewSet()
	for _, op := range r.delivered {
		for _, id := range r.ids {
			if !r.named[id].Contains(op) {
				return f
			}
		}
		f.Put(op)
	}
	return f
}

// joins checks that a replica built from srv's snapshot lands on srv's text.
func joins(srv *css.Server) error {
	c, err := css.NewClientFromSnapshot(99, srv.Snapshot(), nil)
	if err != nil {
		return fmt.Errorf("join: %w", err)
	}
	if got, want := list.Render(c.Document()), list.Render(srv.Document()); got != want {
		return fmt.Errorf("joiner holds %q, server %q", got, want)
	}
	return nil
}

// check is run after every server step.
func (r *logRig) check() error {
	srv := r.srv
	if got := srv.Serialized(); !slices.Equal(got, r.delivered) {
		return fmt.Errorf("Serialized() = %v, delivery order %v", got, r.delivered)
	}
	if got := srv.SeqOf(); got != uint64(len(r.delivered)) {
		return fmt.Errorf("SeqOf() = %d after %d deliveries", got, len(r.delivered))
	}
	// The frontier never passes the set-based one, and is a prefix.
	f, ref := srv.StableFrontier(), r.refFrontier()
	if !f.Subset(ref) {
		return fmt.Errorf("StableFrontier() = %s, not inside the set-based %s", f, ref)
	}
	if !f.Equal(opid.NewSet(r.delivered[:len(f)]...)) {
		return fmt.Errorf("StableFrontier() = %s is not a prefix of %v", f, r.delivered)
	}
	if err := joins(srv); err != nil {
		return err
	}

	// The log determines the server: what Save writes restores to the same
	// order, text and state-space.
	blob, err := srv.Save()
	if err != nil {
		return err
	}
	back, err := css.RestoreServer(blob, nil)
	if err != nil {
		return err
	}
	if !slices.Equal(back.Serialized(), r.delivered) {
		return fmt.Errorf("restored Serialized() = %v, want %v", back.Serialized(), r.delivered)
	}
	if got, want := list.Render(back.Document()), list.Render(srv.Document()); got != want {
		return fmt.Errorf("restored text %q, want %q", got, want)
	}
	if got, want := back.Space().Render(), srv.Space().Render(); got != want {
		return fmt.Errorf("restored space differs:\n%s\nvs\n%s", got, want)
	}
	// The restored copy is spent on the two things that must keep working:
	// the frontier StableFrontier() promises is one a joiner can be rooted
	// at, and the messages still in flight are accepted.
	if _, err := back.AdvanceFrontier(); err != nil {
		return fmt.Errorf("restored: %w", err)
	}
	if got := len(back.Snapshot().FrontierIDs); got != len(f) {
		return fmt.Errorf("restored frontier at %d, StableFrontier() has %d", got, len(f))
	}
	if err := joins(back); err != nil {
		return fmt.Errorf("at StableFrontier(): %w", err)
	}
	for _, id := range r.ids {
		for _, msg := range r.toServer[id] {
			if _, err := back.Receive(msg); err != nil {
				return fmt.Errorf("restored server refuses in-flight %s: %w", msg.Op.ID, err)
			}
		}
	}
	return nil
}

// settle ends a run: deliver everything, give every client one more edit on
// the quiesced state — the round that tells the server they have seen it all
// — and require the frontier to cover the order as it stood.
func (r *logRig) settle() error {
	if err := r.quiesce(); err != nil {
		return err
	}
	n := len(r.delivered)
	for _, id := range r.ids {
		if err := r.generate(id, false, '.', 1); err != nil {
			return err
		}
	}
	if err := r.quiesce(); err != nil {
		return err
	}
	if err := r.check(); err != nil {
		return err
	}
	if got := len(r.srv.StableFrontier()); got < n {
		return fmt.Errorf("after quiescence plus one round the frontier holds %d of %d ops", got, n)
	}
	ref := list.Render(r.srv.Document())
	for id, c := range r.clients {
		if got := list.Render(c.Document()); got != ref {
			return fmt.Errorf("%s holds %q, server %q", id, got, ref)
		}
	}
	return nil
}

// exploreCfg is the 2-client, 2-operation scenario sim.Explore enumerates.
func exploreCfg() sim.ExploreConfig {
	cfg := sim.ExploreConfig{
		Clients: 2,
		Scripts: map[opid.ClientID][]sim.ScriptOp{
			1: {{Ins: true, Val: 'a', Frac: 0}, {Ins: false, Frac: 0.5}},
			2: {{Ins: true, Val: 'b', Frac: 1}, {Ins: true, Val: 'c', Frac: 0.5}},
		},
		Limit: 1000,
	}
	if testing.Short() {
		cfg.Limit = 200
	}
	return cfg
}

// replayExplored drives r through one explored schedule, advancing the
// frontier after every gcEvery-th server step and, if check, checking the
// server after each one and settling the run; otherwise it ends quiesced.
func replayExplored(r *logRig, cfg sim.ExploreConfig, sched core.Schedule, gcEvery int, check bool) error {
	next := map[opid.ClientID]int{}
	steps := 0
	for _, st := range sched {
		var err error
		switch st.Kind {
		case core.StepGenerate:
			op := cfg.Scripts[st.Client][next[st.Client]]
			next[st.Client]++
			err = r.generate(st.Client, !op.Ins, op.Val, op.Frac)
		case core.StepClient:
			err = r.clientRecv(st.Client)
		case core.StepServer:
			if err = r.serverRecv(st.Client); err == nil {
				if steps++; steps%gcEvery == 0 {
					err = r.advance()
				}
			}
			if err == nil && check {
				err = r.check()
			}
		}
		if err != nil {
			return fmt.Errorf("compact=%v gcEvery=%d step %v: %w", r.compact, gcEvery, st, err)
		}
	}
	if !check {
		return r.quiesce()
	}
	return r.settle()
}

// TestLogViewsExhaustive replays every schedule sim.Explore enumerates for a
// 2-client, 2-operation scenario, in both context formats and with the
// frontier advanced after every gcEvery-th server step, checking the server
// after each one.
func TestLogViewsExhaustive(t *testing.T) {
	cfg := exploreCfg()
	res, err := sim.Explore(sim.CSS, cfg, func(_ sim.Cluster, sched core.Schedule) error {
		for _, compact := range []bool{false, true} {
			for _, gcEvery := range []int{1, 3} {
				if err := replayExplored(newLogRig(cfg.Clients, compact), cfg, sched, gcEvery, true); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d schedules (truncated=%v)", res.Schedules, res.Truncated)
}

// randomRun drives one seeded random FIFO schedule: writers edit, messages
// are delivered in random interleaving, the frontier advances at random
// points, and a late joiner may enter mid-run and edit too. afterStep, if
// not nil, becomes the rig's.
func randomRun(seed int64, writers, ops int, check bool, afterStep func(*logRig) error) (*logRig, error) {
	rng := rand.New(rand.NewSource(seed))
	r := newLogRig(writers, seed%2 == 0)
	r.afterStep = afterStep
	left := ops
	for {
		var moves []func() error
		for _, id := range r.ids {
			if left > 0 {
				moves = append(moves, func() error {
					left--
					return r.generate(id, rng.Intn(4) == 0, rune('a'+rng.Intn(26)), rng.Float64())
				})
			}
			if len(r.toServer[id]) > 0 {
				moves = append(moves, func() error {
					if err := r.serverRecv(id); err != nil || !check {
						return err
					}
					return r.check()
				})
			}
			if len(r.toClient[id]) > 0 {
				moves = append(moves, func() error { return r.clientRecv(id) })
			}
		}
		if len(moves) == 0 {
			return r, nil
		}
		switch p := rng.Intn(100); {
		case p < 10:
			moves = []func() error{r.advance}
		case p < 12 && check && len(r.ids) == writers:
			moves = []func() error{r.join}
		}
		if err := moves[rng.Intn(len(moves))](); err != nil {
			return r, err
		}
	}
}

// TestLogViewsRandom is the same differential over seeded random schedules
// of three writers (and a joiner), long enough for operations serialized
// late to have been generated early.
func TestLogViewsRandom(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		r, err := randomRun(seed, 3, 14, true, nil)
		if err == nil {
			err = r.settle()
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestLateJoinUnderGC is the regression test for a join to a document under
// garbage collection: two writers in random FIFO interleaving, the frontier
// advanced every 8 serialized operations, then a join. An operation
// serialized after the frontier can have been generated below it — its
// sender's later messages moved the sender's known set on — and a joiner
// rooted at that frontier had no state matching its context.
func TestLateJoinUnderGC(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newLogRig(2, true)
		for left := 200; left > 0 || len(r.toServer[1])+len(r.toServer[2]) > 0; {
			id := opid.ClientID(1 + rng.Intn(2))
			var err error
			switch p := rng.Intn(3); {
			case p == 0 && left > 0:
				left--
				err = r.generate(id, false, rune('a'+rng.Intn(26)), rng.Float64())
			case p == 1 && len(r.toClient[id]) > 0:
				err = r.clientRecv(id)
			case p == 2 && len(r.toServer[id]) > 0:
				if err = r.serverRecv(id); err == nil && len(r.delivered)%8 == 0 {
					err = r.advance()
				}
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if err := joins(r.srv); err != nil {
			t.Fatalf("seed %d: after %d ops, frontier at %d: %v", seed, len(r.delivered), len(r.srv.Snapshot().FrontierIDs), err)
		}
	}
}

// TestReceiveRefusesForgedIdentity: the log files an operation under its
// id.Client, so a message naming anyone but its sender as author, or a
// context that is not its operation's, is refused before it changes anything
// — and the client it impersonated keeps editing.
func TestReceiveRefusesForgedIdentity(t *testing.T) {
	ins := func(c opid.ClientID, seq uint64) css.ClientMsg {
		op := css.NewClient(c, nil, nil)
		msg, _ := op.GenerateIns('x', 0)
		msg.Op.ID.Seq = seq
		return msg
	}
	compact := func(m css.ClientMsg, cc css.CompactCtx) css.ClientMsg {
		m.Ctx, m.Compact = nil, &cc
		return m
	}
	cases := map[string]func() css.ClientMsg{
		"explicit: op under the victim's id": func() css.ClientMsg {
			m := ins(1, 1)
			m.From = 2
			return m
		},
		"compact: op under the victim's id": func() css.ClientMsg {
			m := compact(ins(1, 1), css.CompactCtx{Origin: 2, OwnSeq: 1})
			m.From = 2
			return m
		},
		"compact: context of another origin": func() css.ClientMsg {
			return compact(ins(2, 1), css.CompactCtx{Origin: 1, OwnSeq: 1})
		},
		"compact: context of another own seq": func() css.ClientMsg {
			return compact(ins(2, 2), css.CompactCtx{Origin: 2, OwnSeq: 1})
		},
		"compact: own seq far past the log": func() css.ClientMsg {
			return compact(ins(2, 1<<62), css.CompactCtx{Origin: 2, OwnSeq: 1 << 62})
		},
		"explicit: context no FIFO client has": func() css.ClientMsg {
			m := ins(2, 1)
			m.Ctx = opid.NewSet(opid.OpID{Client: 2, Seq: 7})
			return m
		},
		"sender not registered": func() css.ClientMsg { return ins(3, 1) },
	}
	for name, forge := range cases {
		srv := css.NewServer([]opid.ClientID{1, 2}, nil, nil)
		victim := css.NewClient(1, nil, nil)
		if outs, err := srv.Receive(forge()); err == nil {
			t.Errorf("%s: accepted, %d messages out", name, len(outs))
		}
		if srv.SeqOf() != 0 || len(srv.Document()) != 0 || srv.Space().NumStates() != 1 {
			t.Errorf("%s: refused message changed the server: seq %d, text %q, %d states",
				name, srv.SeqOf(), list.Render(srv.Document()), srv.Space().NumStates())
		}
		for i := 0; i < 2; i++ {
			msg, err := victim.GenerateIns('v', i)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Receive(msg); err != nil {
				t.Errorf("%s: victim's op %d refused afterwards: %v", name, i+1, err)
			}
		}
	}
}

// TestSaveSizeFollowsTheTail: the blob of a single-writer 2 000-op document
// stays under 1 MB with no garbage collection at all (it was 118 MB when it
// carried the state-space), and shrinks to the frontier's identifiers once
// the frontier covers the order.
func TestSaveSizeFollowsTheTail(t *testing.T) {
	r := newLogRig(1, true)
	for i := 0; i < 2000; i++ {
		if err := r.generate(1, i%5 == 4, rune('a'+i%26), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := r.quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := r.srv.Save()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 1<<20 {
		t.Fatalf("Save() of a 2000-op document is %d bytes, want under 1 MiB", len(blob))
	}
	if err := r.advance(); err != nil {
		t.Fatal(err)
	}
	small, err := r.srv.Save()
	if err != nil {
		t.Fatal(err)
	}
	if len(small) >= len(blob)/2 {
		t.Errorf("Save() is %d bytes with the whole order inside the frontier, %d with none of it", len(small), len(blob))
	}
	back, err := css.RestoreServer(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := list.Render(back.Document()), list.Render(r.srv.Document()); got != want {
		t.Fatalf("restored text %q, want %q", got, want)
	}
	t.Logf("Save(): %d bytes with no frontier, %d bytes behind it", len(blob), len(small))
}

// TestJoinReplayReusesItsContextSet: a joiner expands every replayed compact
// context into one set it refills, not a fresh O(history) set per operation.
// The fresh sets were 14 MB of garbage for this 800-op tail, enough to cycle
// the collector inside every join and make the time of a late join swing from
// run to run. What is left (420 KB) is the joiner's state-space, which no
// longer carries a hash index per edge.
func TestJoinReplayReusesItsContextSet(t *testing.T) {
	r := newLogRig(2, true)
	for i := 0; i < 800; i++ {
		if err := r.generate(opid.ClientID(1+i%2), i%5 == 4, rune('a'+i%26), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := r.quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.srv.Snapshot()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := css.NewClientFromSnapshot(9, snap, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := list.Render(c.Document()), list.Render(r.srv.Document()); got != want {
		t.Fatalf("joiner holds %q, server %q", got, want)
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("replaying %d operations allocated %d bytes", len(snap.Replay), n)
	if n > 512<<10 {
		t.Errorf("replaying %d operations allocated %d bytes, want under 512 KiB", len(snap.Replay), n)
	}
}

// TestServerReceiveReusesItsContextSet: the server, too, expands each compact
// context into one set it refills. A fresh set per message made every
// Receive allocate O(history): 110 KB per op here, by op 2 000 of a
// single-writer document, where what the operation adds to the state-space is
// one state and one edge (about 2.3 KB per op all told).
func TestServerReceiveReusesItsContextSet(t *testing.T) {
	c := css.NewClient(1, nil, nil)
	c.UseCompactContexts()
	srv := css.NewServer([]opid.ClientID{1}, nil, nil)
	srv.UseCompactContexts()
	gen := func() css.ClientMsg {
		msg, err := c.GenerateIns(rune('a'+c.DocLen()%26), c.DocLen())
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	for i := 0; i < 1900; i++ {
		outs, err := srv.Receive(gen())
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if err := c.Receive(o.Msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	msgs := make([]css.ClientMsg, 100)
	for i := range msgs {
		msgs[i] = gen()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range msgs {
		if _, err := srv.Receive(m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(msgs))
	t.Logf("%d bytes per op", per)
	if per > 4<<10 {
		t.Errorf("serialising ops 1901-2000 allocated %d bytes per op, want under 4 KiB", per)
	}
}
