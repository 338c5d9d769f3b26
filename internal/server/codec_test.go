package server_test

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"jupiter/internal/client"
	"jupiter/internal/server"
	"jupiter/internal/wire"
)

// TestResumeReplaysCachedBodies forces mid-stream disconnects: each resume
// replays the retained outbox from the cached encoded bodies, and the session
// converges with every op applied exactly once.
func TestResumeReplaysCachedBodies(t *testing.T) {
	eng := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()
	c, err := client.Dial(client.Config{
		Addr: eng.Addr(), Doc: "codec-doc", Seed: 7, MinBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const ops = 60
	for j := 0; j < ops; j++ {
		if j%20 == 10 {
			c.DropConnection()
		}
		if err := c.Insert(rune('a'+j%26), len(c.Document())); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Sync(ctx); err != nil {
		t.Fatalf("sync after drops: %v", err)
	}
	st, _ := eng.DocState("codec-doc")
	if st.Text != c.Text() {
		t.Fatalf("server %q != client %q", st.Text, c.Text())
	}
	if got, _ := eng.Metrics().Snapshot()["resumes_total"].(int64); got < 1 {
		t.Errorf("want at least one resume, got %d", got)
	}
	if len(st.Text) != ops {
		t.Errorf("want %d chars after dedup, got %d", ops, len(st.Text))
	}
}

// expectV1Refused writes one protocol v1 frame — a JSON body whose hello
// carries no codec offer — as the first frame of a connection, and requires
// an err frame with CodeProtocol followed by EOF. conn.close leaves the write
// loop its flush budget, so the notice always arrives: no retry.
func expectV1Refused(t *testing.T, addr string, hello *wire.Frame) {
	t.Helper()
	body, err := wire.Encode(hello)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	st := wire.NewStream(nc, 0)
	if err := st.WriteRaw(body); err != nil {
		t.Fatal(err)
	}
	f, err := st.Read()
	if err != nil {
		t.Fatalf("refused with no err frame: %v", err)
	}
	if f.Type != wire.TError || f.Error.Code != wire.CodeProtocol || !strings.Contains(f.Error.Msg, "protocol v1") {
		t.Fatalf("got %+v (%+v), want %s error naming protocol v1", f, f.Error, wire.CodeProtocol)
	}
	if _, err := st.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the err frame: %v, want EOF", err)
	}
}

func TestV1HelloRejected(t *testing.T) {
	eng := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()
	expectV1Refused(t, eng.Addr(), &wire.Frame{Type: wire.THello, Hello: &wire.Hello{Doc: "v1-doc"}})
	if _, ok := eng.DocState("v1-doc"); ok {
		t.Fatal("a refused hello created its document")
	}
}

func TestV1ReplHelloRejected(t *testing.T) {
	engs := startReplCluster(t, 2, 5*time.Millisecond, nil)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, e := range engs {
			_ = e.Shutdown(ctx)
		}
	}()
	for _, e := range engs { // leader, then follower
		expectV1Refused(t, e.Addr(), &wire.Frame{Type: wire.TReplHello, ReplHello: &wire.ReplHello{
			NodeID: "v1-peer", Role: wire.RoleFollower,
		}})
	}
}
