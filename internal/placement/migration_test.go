package placement_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jupiter/internal/chaosproxy"
	"jupiter/internal/client"
	"jupiter/internal/core"
	"jupiter/internal/placement"
	"jupiter/internal/server"
	"jupiter/internal/spec"
	"jupiter/internal/wire"
)

// Live-migration acceptance: a document moves between shards while clients
// are actively writing, and the combined system must behave exactly like one
// server that briefly restarted — no operation lost, none applied twice, all
// replicas convergent, and the recorded history satisfying the weak list
// specification. The chaos variant re-runs the property under seeded frame
// drops, delays, partitions, and hard resets injected on every path: client
// traffic, the placement service's migrate commands, and the shard-to-shard
// state transfer all ride chaosproxy-fronted addresses.

// migLeakCheck returns a cleanup that fails the test if the goroutine count
// has not returned to (about) its baseline.
func migLeakCheck(t *testing.T) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		var n int
		for time.Now().Before(deadline) {
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 64<<10)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutine leak: %d running, baseline %d\n%s", n, base, buf)
	}
}

// migDialRetry dials with retries: a migration freeze window or a chaos
// fault can land mid-handshake, which a real client would also just retry.
func migDialRetry(t *testing.T, cfg client.Config) *client.Client {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 100; attempt++ {
		c, err := client.Dial(cfg)
		if err == nil {
			return c
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("dial: %v", lastErr)
	return nil
}

// migrationChaosSchedules resolves the seeded-schedule count: the
// MIGRATION_CHAOS_SCHEDULES env var (Makefile and nightly pin it), else 4
// (the PR-path floor), else 2 in -short mode.
func migrationChaosSchedules() int {
	if s := os.Getenv("MIGRATION_CHAOS_SCHEDULES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		return 2
	}
	return 4
}

// startShardRec starts a standalone shard engine with the given id wired to
// a shared history recorder.
func startShardRec(t *testing.T, id string, rec core.Recorder) *server.Engine {
	t.Helper()
	eng := server.New(server.Config{Addr: "127.0.0.1:0", ShardID: id, Recorder: rec, Logf: t.Logf})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("shard %s shutdown: %v", id, err)
		}
	})
	return eng
}

// seededEdits runs nClients concurrent seeded editors of opsEach ops each
// and returns once all editors finished.
func seededEdits(t *testing.T, clients []*client.Client, opsEach int, seed int64) {
	t.Helper()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			for j := 0; j < opsEach; j++ {
				doc := c.Document()
				if len(doc) > 0 && rng.Intn(4) == 0 {
					if err := c.Delete(rng.Intn(len(doc))); err != nil {
						t.Errorf("client %d delete: %v", i, err)
						return
					}
				} else {
					if err := c.Insert(rune('a'+(i*opsEach+j)%26), rng.Intn(len(doc)+1)); err != nil {
						t.Errorf("client %d insert: %v", i, err)
						return
					}
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(i, c)
	}
	wg.Wait()
}

// drainAndCheck runs the full post-edit barrier: every client syncs, waits
// for the global sequence to reach total, all texts must agree with each
// other and with whichever engine hosts the doc, exactly `total` ops were
// applied across the cluster, and the recorded history passes the weak list
// spec and convergence checks.
func drainAndCheck(t *testing.T, clients []*client.Client, engines []*server.Engine, doc string, total int, hist *core.History) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, c := range clients {
		if err := c.Sync(ctx); err != nil {
			t.Fatalf("client %d sync: %v", i, err)
		}
	}
	for i, c := range clients {
		if err := c.WaitServerSeq(ctx, uint64(total)); err != nil {
			t.Fatalf("client %d wait seq %d (at %d): %v", i, total, c.ServerSeq(), err)
		}
	}
	want := clients[0].Text()
	for i, c := range clients {
		if got := c.Text(); got != want {
			t.Fatalf("client %d diverged:\n c0: %q\n c%d: %q", i, want, i, got)
		}
	}
	// The doc's authoritative host must agree. A failed transfer can leave a
	// stale idle copy on the other shard (nothing routes to it), so require
	// at least one engine at full seq — and every engine at full seq agrees.
	hosts := 0
	var applied int64
	for i, eng := range engines {
		applied += eng.Metrics().Counter("ops_applied").Value()
		st, ok := eng.DocState(doc)
		if !ok {
			continue
		}
		if st.Seq != uint64(total) {
			continue // stale retired copy
		}
		hosts++
		if st.Text != want {
			t.Fatalf("engine %d diverged:\n server: %q\n client: %q", i, st.Text, want)
		}
	}
	if hosts < 1 {
		t.Fatalf("no engine hosts %q at seq %d", doc, total)
	}
	if applied != int64(total) {
		t.Fatalf("ops_applied across shards = %d, want exactly %d (lost or duplicated ops)", applied, total)
	}
	for _, c := range clients {
		c.Read()
	}
	if err := spec.CheckWeak(hist); err != nil {
		t.Fatalf("weak list spec violated: %v", err)
	}
	if err := spec.CheckConvergence(hist); err != nil {
		t.Fatalf("convergence violated: %v", err)
	}
}

// waitHosted blocks until some engine hosts the doc (clients joined).
func waitHosted(t *testing.T, engines []*server.Engine, doc string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, eng := range engines {
			if _, ok := eng.DocState(doc); ok {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("doc %q never hosted", doc)
}

// otherShard names the 2-shard peer the doc is currently NOT routed to.
func otherShard(svc *placement.Service, doc string) string {
	if svc.Lookup(doc).ID == "s0" {
		return "s1"
	}
	return "s0"
}

// TestMigrationUnderActiveWriters is the deterministic acceptance story: a
// document is migrated s→t and back t→s while three clients keep writing.
// Each migration freezes the doc inside the apply loop, transfers the blob,
// and cuts the attached clients with a Moved hint; the clients reroute
// through their placement cache and resume. The drain barrier proves
// exactly-once delivery and spec compliance.
func TestMigrationUnderActiveWriters(t *testing.T) {
	t.Cleanup(migLeakCheck(t))
	const (
		nClients = 3
		opsEach  = 20
		doc      = "mig-live"
	)
	hist := &core.History{}
	rec := &core.LockedRecorder{R: hist}
	engines := []*server.Engine{startShardRec(t, "s0", rec), startShardRec(t, "s1", rec)}

	tbl := wire.Table{Version: 1, VNodes: 16, Shards: []wire.Shard{
		{ID: "s0", Addrs: []string{engines[0].Addr()}},
		{ID: "s1", Addrs: []string{engines[1].Addr()}},
	}}
	svc, err := placement.NewService(placement.Config{Addr: "127.0.0.1:0", Table: tbl, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	clients := make([]*client.Client, nClients)
	for i := range clients {
		clients[i] = migDialRetry(t, client.Config{
			Placement:  svc.Addr(),
			Doc:        doc,
			Seed:       int64(100 + i),
			MinBackoff: 2 * time.Millisecond,
			MaxBackoff: 50 * time.Millisecond,
			Recorder:   rec,
			Logf:       t.Logf,
		})
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()

	// Migrate there and back mid-edit, with writers running the whole time.
	migDone := make(chan struct{})
	go func() {
		defer close(migDone)
		waitHosted(t, engines, doc)
		for hop := 0; hop < 2; hop++ {
			if err := svc.MigrateTo(doc, otherShard(svc, doc)); err != nil {
				t.Errorf("migration hop %d: %v", hop, err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	seededEdits(t, clients, opsEach, 42)
	<-migDone

	drainAndCheck(t, clients, engines, doc, nClients*opsEach, hist)

	var out, in int64
	for _, eng := range engines {
		out += eng.Metrics().Counter("migrations_out_total").Value()
		in += eng.Metrics().Counter("migrations_in_total").Value()
	}
	if out != 2 || in != 2 {
		t.Errorf("migrations out=%d in=%d, want 2/2", out, in)
	}
	if got := svc.Metrics().Counter("migrations_total").Value(); got != 2 {
		t.Errorf("service migrations_total = %d, want 2", got)
	}
	if v := svc.Table().Version; v != 3 {
		t.Errorf("table version = %d, want 3 (1 + two migrations)", v)
	}
}

// TestWrongShardReject: a hello naming another shard is refused with the
// wrong-shard code before any doc state is touched.
func TestWrongShardReject(t *testing.T) {
	eng := server.New(server.Config{Addr: "127.0.0.1:0", ShardID: "s0"})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = eng.Shutdown(ctx)
	}()

	nc, err := net.Dial("tcp", eng.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	st := wire.NewStream(nc, 0)
	if err := st.Write(&wire.Frame{Type: wire.THello, Hello: &wire.Hello{Doc: "d", Shard: "s9", Codecs: []string{wire.CodecBinary}}}); err != nil {
		t.Fatal(err)
	}
	f, err := st.Read()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TError || f.Error == nil || f.Error.Code != wire.CodeWrongShard {
		t.Fatalf("got %+v, want %s error", f, wire.CodeWrongShard)
	}
	if got := eng.Metrics().Counter("wrong_shard_rejects_total").Value(); got != 1 {
		t.Errorf("wrong_shard_rejects_total = %d, want 1", got)
	}
}

// runMigrationChaosSchedule drives one seeded migration-under-chaos
// schedule: both shards sit behind chaos proxies whose addresses ARE the
// routing-table addresses, so client traffic, migrate commands, and the
// state transfer all cross faulty links. A driver goroutine ping-pongs the
// doc between shards for the whole edit phase, tolerating failed attempts
// (failure must leave the source authoritative). After Heal the usual
// convergence + spec barrier must hold, with exactly-once application.
func runMigrationChaosSchedule(t *testing.T, seed int64) (migrated int64, faults int64) {
	const (
		nClients = 3
		opsEach  = 12
		doc      = "mig-chaos"
	)
	hist := &core.History{}
	rec := &core.LockedRecorder{R: hist}
	engines := []*server.Engine{startShardRec(t, "s0", rec), startShardRec(t, "s1", rec)}
	proxies := []*chaosproxy.Proxy{
		chaosproxy.NewForTest(t, engines[0].Addr(), chaosproxy.Random(seed*2, nClients+2)),
		chaosproxy.NewForTest(t, engines[1].Addr(), chaosproxy.Random(seed*2+1, nClients+2)),
	}

	tbl := wire.Table{Version: 1, VNodes: 16, Shards: []wire.Shard{
		{ID: "s0", Addrs: []string{proxies[0].Addr()}},
		{ID: "s1", Addrs: []string{proxies[1].Addr()}},
	}}
	svc, err := placement.NewService(placement.Config{Addr: "127.0.0.1:0", Table: tbl, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	clients := make([]*client.Client, nClients)
	for i := range clients {
		clients[i] = migDialRetry(t, client.Config{
			Placement:  svc.Addr(),
			Doc:        doc,
			Seed:       seed*100 + int64(i+1),
			MinBackoff: 2 * time.Millisecond,
			MaxBackoff: 50 * time.Millisecond,
			Recorder:   rec,
		})
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()

	// Migration driver: keep bouncing the doc while editors run. Attempts
	// may fail under chaos — the property is that failures are harmless, not
	// that every attempt lands.
	var migOK atomic.Int64
	editDone := make(chan struct{})
	var driverWG sync.WaitGroup
	driverWG.Add(1)
	go func() {
		defer driverWG.Done()
		for {
			select {
			case <-editDone:
				return
			default:
			}
			if err := svc.MigrateTo(doc, otherShard(svc, doc)); err == nil {
				migOK.Add(1)
			} else {
				t.Logf("seed %d: migration attempt failed (tolerated): %v", seed, err)
			}
			time.Sleep(8 * time.Millisecond)
		}
	}()

	seededEdits(t, clients, opsEach, seed)
	close(editDone)
	driverWG.Wait()

	// Injection ends; every link is cut once and recovery must converge
	// through the now-transparent proxies.
	for _, p := range proxies {
		p.Heal()
	}
	// The suite must witness at least one completed migration per schedule:
	// if chaos defeated every mid-edit attempt, force one on the healed
	// network before the barrier.
	if migOK.Load() == 0 {
		if err := svc.MigrateTo(doc, otherShard(svc, doc)); err != nil {
			t.Fatalf("seed %d: post-heal migration failed: %v", seed, err)
		}
		migOK.Add(1)
	}

	drainAndCheck(t, clients, engines, doc, nClients*opsEach, hist)

	for _, p := range proxies {
		st := p.Stats()
		faults += st.Dropped + st.Resets + st.MidFrame + st.Partitions
	}
	return migOK.Load(), faults
}

// TestMigrationChaosConvergence is the seeded property suite (the
// MIGRATION_CHAOS_SCHEDULES env var scales it from the 4-schedule PR floor
// to the 50-schedule nightly sweep): every schedule must converge with
// exactly-once delivery and a spec-clean history, and across the suite
// migrations and injected faults must actually have fired. (The fault
// floor counts drops, resets, mid-frame cuts, and partitions together:
// scheduled resets trigger on per-link frame counts, and with the doc
// ping-ponging every few milliseconds a link can be cut by a moved
// redirect before reaching any trigger — which reset fires is timing,
// but that *some* fault fired is not.)
func TestMigrationChaosConvergence(t *testing.T) {
	t.Cleanup(migLeakCheck(t))
	schedules := migrationChaosSchedules()
	var migrated, faults int64
	for seed := int64(0); seed < int64(schedules); seed++ {
		seed := seed
		ok := t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			m, f := runMigrationChaosSchedule(t, seed)
			migrated += m
			faults += f
		})
		if !ok {
			t.Fatalf("schedule %d failed; stopping the sweep", seed)
		}
	}
	t.Logf("suite: %d schedules, %d migrations completed, %d faults injected", schedules, migrated, faults)
	if migrated < int64(schedules) {
		t.Errorf("only %d migrations across %d schedules (want >= 1 each)", migrated, schedules)
	}
	if faults < 1 {
		t.Error("no faults injected across the suite")
	}
}
