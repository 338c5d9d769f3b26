package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"jupiter/internal/client"
	"jupiter/internal/core"
	"jupiter/internal/server"
	"jupiter/internal/spec"
)

// TestLoopbackConvergence is the end-to-end acceptance test for the network
// runtime: one jupiterd engine and four TCP clients on the loopback
// interface, concurrent editing, two clients forcibly disconnected
// mid-edit (exercising redial + resume + op resend + dedup), then a full
// sync barrier. All four replicas and the server must hold the identical
// document, and the recorded history must satisfy the weak list
// specification and convergence.
func TestLoopbackConvergence(t *testing.T) {
	hist := &core.History{}
	rec := &core.LockedRecorder{R: hist}

	eng := server.New(server.Config{
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Recorder:    rec,
		Logf:        t.Logf,
	})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const (
		nClients  = 4
		opsEach   = 40
		docName   = "loopback"
		editPause = time.Millisecond
	)

	clients := make([]*client.Client, nClients)
	for i := range clients {
		c, err := client.Dial(client.Config{
			Addr:       eng.Addr(),
			Doc:        docName,
			Seed:       int64(1000 + i),
			MinBackoff: 5 * time.Millisecond,
			Recorder:   rec,
			Logf:       t.Logf,
		})
		if err != nil {
			t.Fatalf("dial client %d: %v", i, err)
		}
		clients[i] = c
		defer c.Close()
	}

	// Concurrent editing; clients 1 and 2 get their connections cut midway
	// through their edit streams and must resume transparently.
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7 * (i + 1))))
			for j := 0; j < opsEach; j++ {
				if (i == 1 || i == 2) && j == opsEach/2 {
					c.DropConnection()
				}
				doc := c.Document()
				if len(doc) > 0 && rng.Intn(4) == 0 {
					if err := c.Delete(rng.Intn(len(doc))); err != nil {
						t.Errorf("client %d delete: %v", i, err)
						return
					}
				} else {
					val := rune('a' + (i*opsEach+j)%26)
					if err := c.Insert(val, rng.Intn(len(doc)+1)); err != nil {
						t.Errorf("client %d insert: %v", i, err)
						return
					}
				}
				time.Sleep(editPause)
			}
		}(i, c)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Write barrier: every local op serialized and acked.
	for i, c := range clients {
		if err := c.Sync(ctx); err != nil {
			t.Fatalf("client %d sync: %v", i, err)
		}
	}
	// Read barrier: every serialized op applied everywhere.
	const total = nClients * opsEach
	for i, c := range clients {
		if err := c.WaitServerSeq(ctx, total); err != nil {
			t.Fatalf("client %d wait seq %d (at %d): %v", i, total, c.ServerSeq(), err)
		}
	}

	// All replicas and the server must agree.
	want := clients[0].Text()
	for i, c := range clients {
		if got := c.Text(); got != want {
			t.Fatalf("client %d diverged:\n c0: %q\n c%d: %q", i, want, i, got)
		}
	}
	st, ok := eng.DocState(docName)
	if !ok {
		t.Fatal("DocState unavailable")
	}
	if st.Text != want {
		t.Fatalf("server diverged:\n server: %q\n client: %q", st.Text, want)
	}
	if st.Seq != total {
		t.Fatalf("server seq = %d, want %d", st.Seq, total)
	}

	// Record final reads and check the specifications on the full history.
	for _, c := range clients {
		c.Read()
	}
	if err := spec.CheckWeak(hist); err != nil {
		t.Fatalf("weak list spec violated: %v", err)
	}
	if err := spec.CheckConvergence(hist); err != nil {
		t.Fatalf("convergence violated: %v", err)
	}

	// The forced disconnects must actually have exercised resume.
	reg := eng.Metrics()
	if got := reg.Counter("resumes_total").Value(); got < 2 {
		t.Errorf("resumes_total = %d, want >= 2", got)
	}
	if got := reg.Counter("ops_applied").Value(); got != total {
		t.Errorf("ops_applied = %d, want %d", got, total)
	}

	// The metrics endpoint serves live JSON while the engine runs.
	resp, err := http.Get(fmt.Sprintf("http://%s/", eng.MetricsAddr()))
	if err != nil {
		t.Fatalf("metrics endpoint: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if m["ops_applied"].(float64) != total {
		t.Errorf("metrics ops_applied = %v, want %d", m["ops_applied"], total)
	}
}

// TestLoopbackOfflineBuffering cuts a client's connection, lets it edit
// while disconnected (ops buffer locally), and verifies the buffered ops
// reach the server after the automatic reconnect.
func TestLoopbackOfflineBuffering(t *testing.T) {
	eng := server.New(server.Config{Addr: "127.0.0.1:0", Logf: t.Logf})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()

	c, err := client.Dial(client.Config{
		Addr:       eng.Addr(),
		Doc:        "offline",
		MinBackoff: 250 * time.Millisecond, // long enough to edit while down
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Insert('x', 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	c.DropConnection()
	// Edits land in the local buffer while the connection is down.
	for i := 0; i < 5; i++ {
		if err := c.Insert(rune('a'+i), i); err != nil {
			t.Fatal(err)
		}
	}
	if c.Pending() == 0 {
		t.Fatal("expected pending ops while disconnected")
	}
	if err := c.Sync(ctx); err != nil {
		t.Fatalf("sync after reconnect: %v", err)
	}
	st, ok := eng.DocState("offline")
	if !ok {
		t.Fatal("DocState unavailable")
	}
	if st.Text != c.Text() {
		t.Fatalf("server %q != client %q", st.Text, c.Text())
	}
	if st.Seq != 6 {
		t.Fatalf("server seq = %d, want 6", st.Seq)
	}
}

// TestLoopbackTwoDocuments verifies documents are isolated: edits in one
// never appear in the other.
func TestLoopbackTwoDocuments(t *testing.T) {
	eng := server.New(server.Config{Addr: "127.0.0.1:0", Logf: t.Logf})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, tc := range []struct{ doc, text string }{{"alpha", "aaa"}, {"beta", "bb"}} {
		c, err := client.Dial(client.Config{Addr: eng.Addr(), Doc: tc.doc, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range tc.text {
			if err := c.Insert(r, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		doc, text string
		seq       uint64
	}{{"alpha", "aaa", 3}, {"beta", "bb", 2}} {
		st, ok := eng.DocState(tc.doc)
		if !ok {
			t.Fatalf("DocState(%q) unavailable", tc.doc)
		}
		if st.Text != tc.text || st.Seq != tc.seq {
			t.Fatalf("doc %q = %+v, want text %q seq %d", tc.doc, st, tc.text, tc.seq)
		}
	}
}

// TestLoopbackRefusedInsertKeepsSession: an out-of-range Insert returns an
// error and consumes nothing, so the next edit reaches the server with the
// next sequence number and the session carries on (before the range check
// in css.Client.GenerateIns the server saw a gap and cut the connection).
func TestLoopbackRefusedInsertKeepsSession(t *testing.T) {
	eng := server.New(server.Config{Addr: "127.0.0.1:0", Logf: t.Logf})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()
	c, err := client.Dial(client.Config{Addr: eng.Addr(), Doc: "refused", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Insert('x', 3); err == nil {
		t.Fatal("insert past the end of an empty document succeeded")
	}
	if err := c.Insert('a', 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Sync(ctx); err != nil {
		t.Fatalf("sync after a refused insert: %v", err)
	}
	if st, _ := eng.DocState("refused"); st.Text != "a" || st.Seq != 1 {
		t.Fatalf("server has %+v, want text \"a\" at seq 1", st)
	}
	if got := eng.Metrics().Counter("op_gap_disconnects_total").Value(); got != 0 {
		t.Fatalf("op_gap_disconnects_total = %d, want 0", got)
	}
}
