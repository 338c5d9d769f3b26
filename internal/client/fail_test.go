package client

import (
	"context"
	"net"
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
