// Command jupiterctl is a scriptable jupiterd client: it joins a document
// over TCP, types text (one insert per rune, optionally paced and optionally
// dropping its connection mid-stream to exercise resume), waits for the
// requested barriers, and prints the final document.
//
// Examples:
//
//	jupiterctl -addr 127.0.0.1:9170 -doc demo -type "hello "
//	jupiterctl -addr 127.0.0.1:9170 -doc demo -type "world" -drop-after 2
//	jupiterctl -addr 127.0.0.1:9170 -doc demo -wait-seq 11
//	jupiterctl -addr 127.0.0.1:9170,127.0.0.1:9172 -doc demo -type "ha"
//	jupiterctl -status 127.0.0.1:9171
//
// -addr accepts a comma-separated list: against a replicated cluster the
// client rotates through the addresses on redial and follows not-leader
// hints, so a mid-session failover is just a reconnect.
//
// -status queries a node's metrics endpoint and reports its replication
// role, log/commit indexes, lag, and failover count — the operator's view
// of who is leading and how far the followers are behind.
//
// The final document text goes to stdout; everything else to stderr. With
// -wait-seq the command blocks until the replica has processed the given
// global sequence number, so concurrent clients printing after the same
// barrier must print identical text.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"jupiter/internal/client"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jupiterctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("jupiterctl", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:9170", "jupiterd TCP address(es), comma-separated; extras are failover targets")
		doc       = fs.String("doc", "demo", "document to join")
		text      = fs.String("type", "", "text to type, one insert per rune, appended at the end")
		pace      = fs.Duration("pace", 2*time.Millisecond, "pause between generated operations")
		dropAfter = fs.Int("drop-after", 0, "forcibly drop the connection after this many ops (0 = never)")
		waitSeq   = fs.Uint64("wait-seq", 0, "block until the replica has processed this global sequence number")
		timeout   = fs.Duration("timeout", 30*time.Second, "overall deadline for barriers")
		status    = fs.String("status", "", "query this metrics address (host:port) for replication status and exit")
		placeDump = fs.String("placement", "", "query this jupiterplace HTTP address (host:port) for the routing table and per-shard doc counts, then exit")
		migrate   = fs.String("migrate", "", "with -placement: migrate \"doc:shard\" via the placement service, then exit")
		route     = fs.String("route", "", "jupiterplace route address; join the document via placement routing instead of -addr")
		verbose   = fs.Bool("v", false, "log connection events")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *status != "" {
		return printStatus(*status, *timeout)
	}
	if *migrate != "" {
		if *placeDump == "" {
			return fmt.Errorf("-migrate requires -placement (the jupiterplace HTTP address)")
		}
		return runMigrate(*placeDump, *migrate, *timeout)
	}
	if *placeDump != "" {
		return printPlacement(*placeDump, *timeout)
	}

	addrs := strings.Split(*addr, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	cfg := client.Config{Addrs: addrs, Doc: *doc, Placement: *route}
	if *verbose {
		cfg.Logf = log.Printf
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Dial is one attempt per address; a cluster mid-failover rejects
	// hellos until the promoted leader has caught up, so keep trying for
	// the timeout budget.
	var c *client.Client
	var err error
	for {
		c, err = client.Dial(cfg)
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(100 * time.Millisecond):
			log.Printf("jupiterctl: redial: %v", err)
		}
	}
	defer c.Close()

	for i, r := range *text {
		if *dropAfter > 0 && i == *dropAfter {
			log.Printf("jupiterctl: dropping connection after %d ops", i)
			c.DropConnection()
		}
		if err := c.Insert(r, len(c.Document())); err != nil {
			return fmt.Errorf("insert %q: %w", r, err)
		}
		if *pace > 0 {
			time.Sleep(*pace)
		}
	}

	if err := c.Sync(ctx); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	if *waitSeq > 0 {
		if err := c.WaitServerSeq(ctx, *waitSeq); err != nil {
			return fmt.Errorf("wait-seq %d (at %d): %w", *waitSeq, c.ServerSeq(), err)
		}
	}
	fmt.Println(c.Text())
	return nil
}

// printStatus fetches one node's metrics JSON and reports the replication
// view. Works against standalone nodes too (everything reads as zero).
func printStatus(metricsAddr string, timeout time.Duration) error {
	cl := &http.Client{Timeout: timeout}
	resp, err := cl.Get("http://" + metricsAddr + "/")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("metrics from %s: %w", metricsAddr, err)
	}
	num := func(name string) int64 {
		v, _ := m[name].(float64)
		return int64(v)
	}
	role := "follower"
	switch num("repl_role") {
	case 1:
		role = "candidate"
	case 2:
		role = "leader"
	}
	last, commit := num("repl_last_index"), num("repl_commit_index")
	fmt.Printf("node          %s\n", metricsAddr)
	fmt.Printf("role          %s\n", role)
	fmt.Printf("last_index    %d\n", last)
	fmt.Printf("commit_index  %d\n", commit)
	fmt.Printf("lag           %d\n", last-commit)
	fmt.Printf("failovers     %d\n", num("failovers_total"))
	fmt.Printf("not_leader    %d rejected hellos\n", num("not_leader_rejects_total"))
	fmt.Printf("clients       %d connected, %d docs open\n", num("clients_connected"), num("docs_open"))
	fmt.Printf("batching      %d batch frames, %d ops applied\n",
		num("batch_frames_total"), num("ops_applied"))
	fmt.Printf("migrations    %d out, %d in, %d failed, %d moved hints\n",
		num("migrations_out_total"), num("migrations_in_total"),
		num("migration_failures_total"), num("moved_hints_total"))
	// Hot documents: the doc_ops_rate top-k instrument renders as an entry
	// array in the metrics snapshot.
	if rows, ok := m["doc_ops_rate"].([]any); ok && len(rows) > 0 {
		fmt.Printf("hot docs\n")
		for _, r := range rows {
			e, _ := r.(map[string]any)
			if e == nil {
				continue
			}
			doc, _ := e["key"].(string)
			rate, _ := e["ratePerSec"].(float64)
			total, _ := e["total"].(float64)
			fmt.Printf("  %-24s %8.1f ops/s  %10.0f total\n", doc, rate, total)
		}
	}
	return nil
}

// runMigrate asks jupiterplace to migrate a document ("doc:shard") and
// reports the resulting table version.
func runMigrate(httpAddr, spec string, timeout time.Duration) error {
	doc, shard, ok := strings.Cut(spec, ":")
	if !ok || doc == "" || shard == "" {
		return fmt.Errorf("bad -migrate %q (want doc:shard)", spec)
	}
	cl := &http.Client{Timeout: timeout}
	resp, err := cl.PostForm("http://"+httpAddr+"/migrate", url.Values{"doc": {doc}, "to": {shard}})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("migrate %s -> %s: %s: %s", doc, shard, resp.Status, strings.TrimSpace(string(body)))
	}
	fmt.Printf("migrated %-16s -> %s\n%s", doc, shard, body)
	return nil
}

// printPlacement fetches jupiterplace's /table document and reports the
// routing table with per-shard doc counts.
func printPlacement(httpAddr string, timeout time.Duration) error {
	cl := &http.Client{Timeout: timeout}
	resp, err := cl.Get("http://" + httpAddr + "/table")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var view struct {
		Table struct {
			Version uint64 `json:"version"`
			VNodes  int    `json:"vnodes"`
			Shards  []struct {
				ID    string   `json:"id"`
				Addrs []string `json:"addrs"`
			} `json:"shards"`
			Overrides []struct {
				Doc   string `json:"doc"`
				Shard string `json:"shard"`
			} `json:"overrides"`
		} `json:"table"`
		Docs map[string]int `json:"docs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return fmt.Errorf("table from %s: %w", httpAddr, err)
	}
	fmt.Printf("placement     %s\n", httpAddr)
	fmt.Printf("table         v%d, %d vnodes/shard\n", view.Table.Version, view.Table.VNodes)
	for _, sh := range view.Table.Shards {
		fmt.Printf("shard %-8s %s  (%d docs)\n", sh.ID, strings.Join(sh.Addrs, ","), view.Docs[sh.ID])
	}
	if len(view.Table.Overrides) > 0 {
		fmt.Printf("overrides     %d migrated docs\n", len(view.Table.Overrides))
		for _, o := range view.Table.Overrides {
			fmt.Printf("  %-24s -> %s\n", o.Doc, o.Shard)
		}
	}
	return nil
}
