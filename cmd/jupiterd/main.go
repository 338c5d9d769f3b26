// Command jupiterd runs the CSS Jupiter server over TCP: a multi-document
// collaborative-editing daemon speaking the internal/wire frame protocol,
// with a metrics endpoint serving live JSON counters.
//
// Examples:
//
//	jupiterd -addr 127.0.0.1:9170 -metrics 127.0.0.1:9171
//	jupiterd -addr :9170 -gc-every 64 -v
//	jupiterd -addr :9170 -persist-dir /var/lib/jupiterd
//	jupiterd -addr :9170 -node-id n0 -peers n0=host0:9170,n1=host1:9170,n2=host2:9170
//
// Standalone, a daemon with -persist-dir saves every document (including
// client sessions) on graceful shutdown and restores them on restart, so
// clients resume instead of starting fresh. With -node-id and -peers the
// daemon joins a replicated cluster: the peer list is every node's identical
// PRIORITY-ordered roster, the first entry is the initial leader, and
// followers serialize nothing themselves — they replicate the leader's log
// and take over (in list order) when it dies. See DESIGN.md, "Replication
// layer".
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: listeners close,
// every client receives a shutdown error frame, queued frames drain, and
// document apply loops stop.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"jupiter/internal/placement"
	"jupiter/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jupiterd:", err)
		os.Exit(1)
	}
}

// parsePeers turns "n0=host:port,n1=host:port" into a priority-ordered
// cluster roster.
func parsePeers(s string) ([]server.Peer, error) {
	if s == "" {
		return nil, nil
	}
	var peers []server.Peer
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		peers = append(peers, server.Peer{ID: id, Addr: addr})
	}
	return peers, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("jupiterd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:9170", "TCP listen address for the wire protocol")
		metricsAddr = fs.String("metrics", "127.0.0.1:9171", "HTTP listen address for metrics JSON (empty to disable)")
		maxFrame    = fs.Int("max-frame", 0, "maximum wire frame size in bytes (0 = default)")
		sendQueue   = fs.Int("send-queue", 0, "per-client outbound queue capacity (0 = default)")
		gcEvery     = fs.Int("gc-every", 0, "advance the state-space GC frontier every N applied ops (0 = never; must match across a cluster)")
		nodeID      = fs.String("node-id", "", "this node's id within -peers (replicated mode)")
		peersFlag   = fs.String("peers", "", "priority-ordered cluster roster, id=host:port comma-separated; first entry is the initial leader")
		replRetry   = fs.Duration("repl-retry", 0, "replication dial/scan retry pace (0 = 500ms)")
		persistDir  = fs.String("persist-dir", "", "standalone only: save documents here on graceful shutdown and restore on restart")
		shardID     = fs.String("shard-id", "", "this shard's id within a doc-sharded cluster (rejects hellos routed to other shards)")
		placeAddr   = fs.String("placement", "", "placement service route address; on startup the daemon checks its -shard-id is in the served table")
		migToken    = fs.String("mig-token", os.Getenv("JUPITER_MIG_TOKEN"), "shared secret required on migrate/mig_state frames (default $JUPITER_MIG_TOKEN; empty = unauthenticated)")
		verbose     = fs.Bool("v", false, "log connection and session events")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}
	if len(peers) > 1 && *nodeID == "" {
		return fmt.Errorf("-peers requires -node-id")
	}
	if *shardID != "" && len(peers) > 1 {
		return fmt.Errorf("-shard-id and -peers are mutually exclusive (sharding assumes standalone shards)")
	}

	cfg := server.Config{
		Addr:        *addr,
		MetricsAddr: *metricsAddr,
		MaxFrame:    *maxFrame,
		SendQueue:   *sendQueue,
		GCEvery:     *gcEvery,
		NodeID:      *nodeID,
		Cluster:     peers,
		ReplRetry:   *replRetry,
		PersistDir:  *persistDir,
		ShardID:     *shardID,

		MigrationToken: *migToken,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	eng := server.New(cfg)
	if err := eng.Start(); err != nil {
		return err
	}
	log.Printf("jupiterd: serving on %s", eng.Addr())
	if ma := eng.MetricsAddr(); ma != "" {
		log.Printf("jupiterd: metrics on http://%s/", ma)
	}
	if len(peers) > 1 {
		log.Printf("jupiterd: replicated node %s in a %d-node cluster (leader priority: %s)",
			*nodeID, len(peers), peers[0].ID)
	}
	if *shardID != "" {
		log.Printf("jupiterd: serving as shard %s", *shardID)
	}
	if *placeAddr != "" {
		// Best-effort sanity check: a shard whose id is missing from the
		// placement table will never receive traffic — worth a loud warning.
		cache := placement.NewCache(*placeAddr)
		if _, err := cache.Lookup("jupiterd-startup-probe"); err != nil {
			log.Printf("jupiterd: warning: placement service %s unreachable: %v", *placeAddr, err)
		} else if *shardID != "" {
			if _, err := cache.Shard(*shardID); err != nil {
				log.Printf("jupiterd: warning: shard %s not in the placement table at %s", *shardID, *placeAddr)
			} else {
				log.Printf("jupiterd: registered in placement table at %s", *placeAddr)
			}
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("jupiterd: %v, shutting down", s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return eng.Shutdown(ctx)
}
