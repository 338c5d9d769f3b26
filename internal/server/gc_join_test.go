package server_test

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"jupiter/internal/client"
	"jupiter/internal/css"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
	"jupiter/internal/server"
	"jupiter/internal/wire"
)

// TestLateJoinUnderGC is the failing configuration bench/README.md recorded:
// two concurrent writers at window 32 on an engine that collects every 64
// operations, then readers joining. A writer that falls behind in receiving
// has operations serialized above a frontier they were generated below, and
// a joiner rooted at that frontier could not replay them.
func TestLateJoinUnderGC(t *testing.T) {
	t.Cleanup(checkNoGoroutineLeak(t))
	const (
		doc     = "gc-join"
		opsEach = 400
	)
	eng := server.New(server.Config{Addr: "127.0.0.1:0", GCEvery: 64, Logf: t.Logf})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer func() { _ = eng.Shutdown(ctx) }()

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		c, err := client.Dial(client.Config{Addr: eng.Addr(), Doc: doc, Window: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsEach; i++ {
				if err := c.Insert(rune('a'+i%26), rng.Intn(c.DocLen()+1)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
			if err := c.Sync(ctx); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}()
	}
	wg.Wait()
	if got := eng.Metrics().Counter("protocol_errors_total").Value(); got != 0 {
		t.Fatalf("protocol_errors_total = %d", got)
	}
	want, ok := eng.DocState(doc)
	if !ok || want.Seq != 2*opsEach {
		t.Fatalf("document state %+v, want %d ops", want, 2*opsEach)
	}
	for j := 0; j < 5; j++ {
		c, err := client.Dial(client.Config{Addr: eng.Addr(), Doc: doc})
		if err != nil {
			t.Fatalf("join %d: %v", j, err)
		}
		if got := c.Text(); got != want.Text {
			t.Errorf("join %d holds %d characters, the server %d", j, len(got), len(want.Text))
		}
		_ = c.Close()
	}
}

// TestForgedIdentityRejected: a connection that sends an operation under
// another client's id is refused with a protocol error before the document
// changes, and the client it named keeps editing. Accepted, the operation
// would take the victim's first sequence number and every edit of the victim
// would bounce off ErrDuplicateOp for good.
func TestForgedIdentityRejected(t *testing.T) {
	t.Cleanup(checkNoGoroutineLeak(t))
	const doc = "forged"
	eng := server.New(server.Config{Addr: "127.0.0.1:0", Logf: t.Logf})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer func() { _ = eng.Shutdown(ctx) }()

	victim, err := client.Dial(client.Config{Addr: eng.Addr(), Doc: doc, MinBackoff: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	nc, err := net.Dial("tcp", eng.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	st := wire.NewStream(nc, 0)
	if err := st.Write(&wire.Frame{Type: wire.THello, Hello: &wire.Hello{Doc: doc, Codecs: []string{wire.CodecBinary}}}); err != nil {
		t.Fatal(err)
	}
	f, err := st.Read()
	if err != nil || f.Type != wire.TWelcome {
		t.Fatalf("attacker's hello: %+v, %v", f, err)
	}
	me := opid.ClientID(f.Welcome.ClientID)
	forged := css.ClientMsg{
		From:    me,
		Op:      ot.Ins('!', 0, opid.OpID{Client: victim.ID(), Seq: 1}),
		Compact: &css.CompactCtx{Origin: me, OwnSeq: 1},
	}
	if err := st.Write(&wire.Frame{Type: wire.TOp, Op: &wire.Op{Msg: forged}}); err != nil {
		t.Fatal(err)
	}
	if f, err = st.Read(); err != nil || f.Type != wire.TError || f.Error.Code != wire.CodeProtocol {
		t.Fatalf("forged op answered with %+v, %v; want a %s error", f, err, wire.CodeProtocol)
	}

	for _, r := range "still here" {
		if err := victim.Insert(r, victim.DocLen()); err != nil {
			t.Fatal(err)
		}
	}
	if err := victim.Sync(ctx); err != nil {
		t.Fatalf("victim cannot edit after the forgery: %v", err)
	}
	if got, _ := eng.DocState(doc); got.Text != "still here" {
		t.Fatalf("document %q, want %q", got.Text, "still here")
	}
}
