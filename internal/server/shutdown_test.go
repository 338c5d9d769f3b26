package server

import (
	"context"
	"runtime"
	"testing"
	"time"
	"weak"

	"jupiter/internal/client"
	"jupiter/internal/css"
)

// TestShutdownReleasesEngine replays a benchmark round's end: dial, write,
// Sync, Close, then Shutdown at once. Once Shutdown has returned, nothing
// may keep the engine reachable: a pending close timer of the shutdown
// notice would pin it, and through it every document, for 50 ms.
func TestShutdownReleasesEngine(t *testing.T) {
	for i := 0; i < 20; i++ {
		srv := func() weak.Pointer[css.Server] {
			eng := New(Config{Addr: "127.0.0.1:0"})
			if err := eng.Start(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			c, err := client.Dial(client.Config{Addr: eng.Addr(), Doc: "d"})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 10; k++ {
				if err := c.Insert('a', 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			_ = c.Close()
			eng.mu.Lock()
			p := weak.Make(eng.docs["d"].srv)
			eng.mu.Unlock()
			if err := eng.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			return p
		}()
		// A loop goroutine that has called wg.Done may not have returned yet,
		// so its stack can still hold its conn for a moment: allow 10 ms,
		// a fifth of the timer's delay.
		runtime.GC()
		for n := 0; srv.Value() != nil && n < 10; n++ {
			time.Sleep(time.Millisecond)
			runtime.GC()
		}
		if srv.Value() != nil {
			t.Fatalf("round %d: the document's css.Server is still reachable after Shutdown", i)
		}
	}
}
