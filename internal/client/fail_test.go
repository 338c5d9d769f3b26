package client

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
	"jupiter/internal/wire"
)

// TestUnappliableFrameFailsTheClient: a server frame the replica cannot
// integrate is a terminal error, and Sync reports it. The frame is applied
// under the client's lock, so recording the error must not take that lock
// again.
func TestUnappliableFrameFailsTheClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			nc, err := ln.Accept()
			if err != nil {
				return err
			}
			defer nc.Close()
			codec := wire.NewStream(nc, 0)
			if _, err := codec.Read(); err != nil { // hello
				return err
			}
			if err := codec.Write(&wire.Frame{Type: wire.TWelcome, Welcome: &wire.Welcome{
				ClientID: 1, Snapshot: css.NewServer(nil, nil, nil).Snapshot(), Codec: wire.CodecBinary,
			}}); err != nil {
				return err
			}
			if _, err := codec.Read(); err != nil { // the client's insert
				return err
			}
			// Another client's delete at position 99 of an empty document.
			del := ot.Del(list.Elem{Val: 'q', ID: opid.OpID{Client: 2, Seq: 1}}, 99, opid.OpID{Client: 2, Seq: 2})
			if err := codec.Write(&wire.Frame{Type: wire.TServer, Server: &wire.Server{Seq: 1, Msg: css.ServerMsg{
				Kind: css.MsgBroadcast, Op: del, Compact: &css.CompactCtx{Origin: 2, OwnSeq: 1}, Seq: 1, Origin: 2,
			}}}); err != nil {
				return err
			}
			_, _ = codec.Read() // hold the connection until the client hangs up
			return nil
		}()
	}()

	c, err := Dial(Config{Addr: ln.Addr().String(), Doc: "d", DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert('x', 0); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		synced <- c.Sync(ctx)
	}()
	select {
	case err := <-synced:
		if err == nil || err == context.DeadlineExceeded {
			t.Fatalf("Sync = %v, want the terminal apply error", err)
		}
		t.Logf("Sync: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("Sync did not return: the client is deadlocked")
	}
	c.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// refusingServer accepts connections on ln until it is closed, answers
// every hello with a welcome (a fresh session on the first connection, a
// resume afterwards), and the first operation of the first connection with
// an err frame of the given code. It sends each accepted connection's hello
// on hellos.
func refusingServer(ln net.Listener, code string, hellos chan<- wire.Hello) {
	for first := true; ; first = false {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		go func(nc net.Conn, first bool) {
			defer nc.Close()
			codec := wire.NewStream(nc, 0)
			f, err := codec.Read()
			if err != nil || f.Type != wire.THello {
				return
			}
			hellos <- *f.Hello
			w := &wire.Welcome{ClientID: 1, Codec: wire.CodecBinary, Resume: !first}
			if first {
				w.Snapshot = css.NewServer(nil, nil, nil).Snapshot()
			}
			if err := codec.Write(&wire.Frame{Type: wire.TWelcome, Welcome: w}); err != nil {
				return
			}
			if _, err := codec.Read(); err != nil || !first { // the client's insert
				return
			}
			if err := codec.Write(&wire.Frame{Type: wire.TError, Error: &wire.Error{Code: code, Msg: "refused"}}); err != nil {
				return
			}
			_, _ = codec.Read() // hold the connection until the client hangs up
		}(nc, first)
	}
}

// TestProtocolErrorEndsTheSession: a server that refuses an operation with
// err{protocol} would refuse it again after every resume, so the client
// ends the session: Sync returns the refusal and the client never redials.
func TestProtocolErrorEndsTheSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hellos := make(chan wire.Hello, 64)
	go refusingServer(ln, wire.CodeProtocol, hellos)
	c, err := Dial(Config{Addr: ln.Addr().String(), Doc: "d", DialTimeout: time.Second, MinBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert('x', 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Sync(ctx); err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), wire.CodeProtocol) {
		t.Fatalf("Sync = %v, want the server's %s refusal within 2 s", err, wire.CodeProtocol)
	}
	c.Close()
	ln.Close()
	if n := len(hellos); n != 1 {
		t.Fatalf("the server accepted %d connections, want 1: the client redialled after a terminal refusal", n)
	}
}

// TestOpGapResumes: err{op-gap} reports a frame the transport lost, which a
// resume replays, so the client redials with a resume hello.
func TestOpGapResumes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hellos := make(chan wire.Hello, 64)
	go refusingServer(ln, wire.CodeOpGap, hellos)
	c, err := Dial(Config{Addr: ln.Addr().String(), Doc: "d", DialTimeout: time.Second, MinBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert('x', 0); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		select {
		case h := <-hellos:
			if n == 1 && h.ClientID != 1 {
				t.Fatalf("second hello %+v, want a resume of c1", h)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d connections after err{%s}, want a resume", n, wire.CodeOpGap)
		}
	}
}
