package css_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"jupiter/internal/css"
	"jupiter/internal/opid"
)

// BenchmarkJoin measures one late join at the state-space layer, with no
// sockets: two writers write 400 operations each (30 % deletes), each with
// at most 32 of its own operations un-acknowledged, over a seeded FIFO
// interleaving; the server's snapshot is then taken once, and every
// iteration builds a joining client from it (NewClientFromSnapshot), which
// replays all 800 operations into a fresh state-space. It reports ns/join,
// B/join, the joiner's states and its allocation per state.
func BenchmarkJoin(b *testing.B) {
	srv, _ := preloadJoin(b, 1, 400, 32)
	snap := srv.Snapshot()
	var states int
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := css.NewClientFromSnapshot(3, snap, nil)
		if err != nil {
			b.Fatal(err)
		}
		states = c.Space().NumStates()
	}
	b.StopTimer()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	perJoin := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/join")
	b.ReportMetric(perJoin, "B/join")
	b.ReportMetric(float64(states), "states")
	b.ReportMetric(perJoin/float64(states), "B/state")
}

// preloadJoin runs two compact-context writers against a server until each
// has written ops operations and every message is delivered, and returns the
// server and the writers. Each step picks uniformly among the enabled moves
// — a writer generating (while fewer than window of its operations are
// un-acknowledged), the server taking a writer's next message, a writer
// taking its next server message — so contexts lag as far as the window
// lets them.
func preloadJoin(tb testing.TB, seed int64, ops, window int) (*css.Server, []*css.Client) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := []opid.ClientID{1, 2}
	srv := css.NewServer(ids, nil, nil)
	srv.UseCompactContexts()
	clients := make([]*css.Client, len(ids))
	for i, id := range ids {
		clients[i] = css.NewClient(id, nil, nil)
		clients[i].UseCompactContexts()
	}
	up := make([][]css.ClientMsg, len(ids))
	down := make([][]css.ServerMsg, len(ids))
	written, acked := make([]int, len(ids)), make([]int, len(ids))
	const (
		generate = iota
		serverTakes
		writerTakes
	)
	type move struct{ kind, i int }
	var moves []move
	for {
		moves = moves[:0]
		for i := range clients {
			if written[i] < ops && written[i]-acked[i] < window {
				moves = append(moves, move{generate, i})
			}
			if len(up[i]) > 0 {
				moves = append(moves, move{serverTakes, i})
			}
			if len(down[i]) > 0 {
				moves = append(moves, move{writerTakes, i})
			}
		}
		if len(moves) == 0 {
			return srv, clients
		}
		m := moves[rng.Intn(len(moves))]
		c := clients[m.i]
		switch m.kind {
		case generate:
			var msg css.ClientMsg
			var err error
			if n := c.DocLen(); n > 0 && rng.Intn(10) < 3 {
				msg, err = c.GenerateDel(rng.Intn(n))
			} else {
				msg, err = c.GenerateIns(rune('a'+written[m.i]%26), rng.Intn(n+1))
			}
			if err != nil {
				tb.Fatal(err)
			}
			up[m.i] = append(up[m.i], msg)
			written[m.i]++
		case serverTakes:
			outs, err := srv.Receive(up[m.i][0])
			if err != nil {
				tb.Fatal(err)
			}
			up[m.i] = up[m.i][1:]
			for _, o := range outs {
				k := int(o.To) - 1
				down[k] = append(down[k], o.Msg)
			}
		case writerTakes:
			msg := down[m.i][0]
			down[m.i] = down[m.i][1:]
			if err := c.Receive(msg); err != nil {
				tb.Fatal(err)
			}
			if msg.Kind == css.MsgAck {
				acked[m.i]++
			}
		}
	}
}
