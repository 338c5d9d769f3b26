package placement_test

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jupiter/internal/client"
	"jupiter/internal/core"
	"jupiter/internal/placement"
	"jupiter/internal/server"
	"jupiter/internal/wire"
)

// Regression coverage for the migration hardening pass: persisted-but-idle
// documents must migrate with their on-disk state, the placement plane must
// honor the shared migration token, and a client without placement routing
// must follow (or terminally refuse) Moved hints instead of redialing the
// retired shard forever.

// typeText inserts text into c one rune at a time, appending at the end.
func typeText(t *testing.T, c *client.Client, text string) {
	t.Helper()
	for _, r := range text {
		if err := c.Insert(r, len(c.Document())); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMigrationOfPersistedIdleDoc: a document that exists only as a persisted
// save (the shard restarted, no client rejoined) must still migrate with its
// full state. The broken behavior was "not hosted → nothing to transfer",
// which recorded a permanent Moved hint and stranded the on-disk save.
func TestMigrationOfPersistedIdleDoc(t *testing.T) {
	t.Cleanup(migLeakCheck(t))
	const doc = "mig-persist"
	const text = "durable"
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Phase 1: write on a persist-enabled shard, then shut it down
	// gracefully — the document now lives only on disk.
	eng0 := server.New(server.Config{Addr: "127.0.0.1:0", ShardID: "s0", PersistDir: dir, Logf: t.Logf})
	if err := eng0.Start(); err != nil {
		t.Fatal(err)
	}
	c0, err := client.Dial(client.Config{Addr: eng0.Addr(), Doc: doc, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	typeText(t, c0, text)
	if err := c0.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	_ = c0.Close()
	if err := eng0.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, doc+".json")
	if _, err := os.Stat(saved); err != nil {
		t.Fatalf("persisted save missing after shutdown: %v", err)
	}

	// Phase 2: restart the shard (nobody joins, so the doc is NOT reloaded)
	// and migrate the document to a fresh peer shard.
	startPersistShard := func(id, pdir string) *server.Engine {
		eng := server.New(server.Config{Addr: "127.0.0.1:0", ShardID: id, PersistDir: pdir, Logf: t.Logf})
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer scancel()
			_ = eng.Shutdown(sctx)
		})
		return eng
	}
	engines := []*server.Engine{startPersistShard("s0", dir), startPersistShard("s1", t.TempDir())}

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

	if err := svc.MigrateTo(doc, "s1"); err != nil {
		t.Fatalf("migrating persisted idle doc: %v", err)
	}

	// The target holds the restored state, the source's save is gone (a
	// later restart must not resurrect a stale copy), and a placement-routed
	// client resumes against the full document.
	st, ok := engines[1].DocState(doc)
	if !ok {
		t.Fatal("target shard does not host the migrated doc")
	}
	if st.Text != text || st.Seq != uint64(len(text)) {
		t.Fatalf("target state %q seq %d, want %q seq %d", st.Text, st.Seq, text, len(text))
	}
	if _, err := os.Stat(saved); !os.IsNotExist(err) {
		t.Errorf("source persisted save still on disk after migration (stat err %v)", err)
	}
	if got := engines[0].Metrics().Counter("migrations_out_total").Value(); got != 1 {
		t.Errorf("source migrations_out_total = %d, want 1", got)
	}
	c1 := migDialRetry(t, client.Config{Placement: svc.Addr(), Doc: doc, Logf: t.Logf})
	defer c1.Close()
	if err := c1.WaitServerSeq(ctx, uint64(len(text))); err != nil {
		t.Fatal(err)
	}
	if got := c1.Text(); got != text {
		t.Fatalf("reader sees %q, want %q", got, text)
	}
}

// TestMigrationTokenGate: shards configured with a migration token refuse
// placement-plane frames that do not carry it — before freezing or exporting
// anything — while a service holding the token drives the same migration
// through.
func TestMigrationTokenGate(t *testing.T) {
	t.Cleanup(migLeakCheck(t))
	const (
		doc   = "mig-token"
		token = "tok-s3cret"
	)
	hist := &core.History{}
	rec := &core.LockedRecorder{R: hist}
	mk := func(id string) *server.Engine {
		eng := server.New(server.Config{Addr: "127.0.0.1:0", ShardID: id, Recorder: rec, MigrationToken: token, Logf: t.Logf})
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = eng.Shutdown(ctx)
		})
		return eng
	}
	engines := []*server.Engine{mk("s0"), mk("s1")}
	tbl := wire.Table{Version: 1, VNodes: 16, Shards: []wire.Shard{
		{ID: "s0", Addrs: []string{engines[0].Addr()}},
		{ID: "s1", Addrs: []string{engines[1].Addr()}},
	}}
	mkSvc := func(tok string) *placement.Service {
		svc, err := placement.NewService(placement.Config{Addr: "127.0.0.1:0", Table: tbl, MigrationToken: tok, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		return svc
	}
	rogue, good := mkSvc(""), mkSvc(token)

	c := migDialRetry(t, client.Config{Placement: good.Addr(), Doc: doc, Recorder: rec,
		MinBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, Logf: t.Logf})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	typeText(t, c, "gatekeep")
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	waitHosted(t, engines, doc)

	// The tokenless service is refused with an explicit nack, nothing is
	// frozen or transferred, and the reject is counted.
	err := rogue.MigrateTo(doc, otherShard(rogue, doc))
	if err == nil || !strings.Contains(err.Error(), "migration token mismatch") {
		t.Fatalf("tokenless migrate error = %v, want token mismatch", err)
	}
	var rejects int64
	for _, eng := range engines {
		rejects += eng.Metrics().Counter("migration_auth_rejects_total").Value()
	}
	if rejects < 1 {
		t.Errorf("migration_auth_rejects_total = %d, want >= 1", rejects)
	}
	// The document is untouched: the same client keeps writing.
	typeText(t, c, "-still")
	if err := c.Sync(ctx); err != nil {
		t.Fatalf("doc unusable after refused migration: %v", err)
	}

	// The tokened service drives the migration (Migrate to the source, the
	// source's MigState to the target — both shards check the token).
	if err := good.MigrateTo(doc, otherShard(good, doc)); err != nil {
		t.Fatalf("tokened migrate: %v", err)
	}
	typeText(t, c, "-open")
	total := len("gatekeep") + len("-still") + len("-open")
	drainAndCheck(t, []*client.Client{c}, engines, doc, total, hist)
	var out int64
	for _, eng := range engines {
		out += eng.Metrics().Counter("migrations_out_total").Value()
	}
	if out != 1 {
		t.Errorf("migrations_out_total across shards = %d, want 1", out)
	}
}

// TestStaticClientFollowsMoved: a client configured with a fixed address (no
// placement service) is cut with a Moved hint mid-session; it must adopt the
// hint's addresses as its dial list and resume on the target shard.
func TestStaticClientFollowsMoved(t *testing.T) {
	t.Cleanup(migLeakCheck(t))
	const doc = "mig-static"
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

	// Dial the doc's ring home directly, placement-blind.
	home := 0
	if svc.Lookup(doc).ID == "s1" {
		home = 1
	}
	c, err := client.Dial(client.Config{Addr: engines[home].Addr(), Doc: doc, Recorder: rec,
		MinBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	typeText(t, c, "before")
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	if err := svc.MigrateTo(doc, otherShard(svc, doc)); err != nil {
		t.Fatal(err)
	}

	// The cut carried the target's address; the redial loop must land there
	// and resume the transferred session (local-first edits never block).
	typeText(t, c, "-after")
	total := len("before") + len("-after")
	drainAndCheck(t, []*client.Client{c}, engines, doc, total, hist)
	st, ok := engines[1-home].DocState(doc)
	if !ok || st.Seq != uint64(total) {
		t.Fatalf("target shard state after static-client resume: hosted=%v seq=%d, want seq %d", ok, st.Seq, total)
	}
}

// TestStaticClientMovedWithoutAddrsFailsFast: a Moved hint with no addresses
// is unactionable for a client without a placement service. The client must
// fail terminally instead of redialing the retired shard forever.
func TestStaticClientMovedWithoutAddrsFailsFast(t *testing.T) {
	const doc = "mig-noaddrs"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
				st := wire.NewStream(nc, 0)
				if _, err := st.Read(); err != nil {
					return
				}
				_ = st.Write(&wire.Frame{Type: wire.TMoved, Moved: &wire.Moved{Doc: doc, Shard: "s9"}})
			}(nc)
		}
	}()

	_, err = client.Dial(client.Config{Addr: ln.Addr().String(), Doc: doc,
		MinBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Logf: t.Logf})
	if err == nil {
		t.Fatal("dial succeeded against a shard that only serves addr-less Moved hints")
	}
	if !strings.Contains(err.Error(), "no placement service") {
		t.Fatalf("error = %v, want terminal no-placement-route failure", err)
	}
}

// TestMigrationOfLongDocument: the transfer is one frame, and the blob used to
// carry the state-space — 7 MB at 500 operations and quadratic, so no document
// past ~540 could move under the 8 MiB frame cap. It is the log now: a
// 1 500-op document migrates at the default MaxFrame, and its writer resumes
// its session on the target.
func TestMigrationOfLongDocument(t *testing.T) {
	t.Cleanup(migLeakCheck(t))
	const (
		doc = "mig-long"
		ops = 1500
	)
	engines := []*server.Engine{startShardRec(t, "s0", nil), startShardRec(t, "s1", nil)}
	tbl := wire.Table{Version: 1, VNodes: 16, Shards: []wire.Shard{
		{ID: "s0", Addrs: []string{engines[0].Addr()}},
		{ID: "s1", Addrs: []string{engines[1].Addr()}},
	}}
	svc, err := placement.NewService(placement.Config{Addr: "127.0.0.1:0", Table: tbl})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w := migDialRetry(t, client.Config{Placement: svc.Addr(), Doc: doc, MinBackoff: 2 * time.Millisecond})
	defer w.Close()
	typeText(t, w, strings.Repeat("0123456789", ops/10))
	if err := w.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	target := otherShard(svc, doc)
	if err := svc.MigrateTo(doc, target); err != nil {
		t.Fatalf("migrating a %d-op document: %v", ops, err)
	}
	typeText(t, w, "!")
	if err := w.Sync(ctx); err != nil {
		t.Fatalf("writer did not resume on %s: %v", target, err)
	}
	for _, eng := range engines {
		if st, ok := eng.DocState(doc); ok && (st.Seq != ops+1 || st.Text != w.Text()) {
			t.Errorf("hosting shard has seq %d and %d characters, writer %d", st.Seq, len(st.Text), len(w.Text()))
		}
	}
	if got := svc.Metrics().Counter("migrations_total").Value(); got != 1 {
		t.Errorf("migrations_total = %d, want 1", got)
	}
}
