package sim

import (
	"fmt"
	"math/rand"

	"jupiter/internal/faultnet"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/spec"
)

// Chaos runtime: CSS/CSCW traffic over an unreliable network.
//
// When AsyncConfig.Faults is set, RunAsync routes every client↔server
// message through faultnet sessions over faulty links and drives the whole
// system on a deterministic virtual clock — a single-threaded discrete-event
// loop, so every fault schedule is exactly reproducible from (Seed, Faults).
//
// Per tick: scheduled faults fire (partitions sever links, crashes take
// replicas down and bring them back), alive clients drain their sessions and
// generate operations, the server drains its per-client sessions and
// redirects, every session endpoint runs its retransmission timers, and the
// clock advances. The run ends when all operations are generated, every
// session is fully acknowledged, and no packet is in flight — or errors out
// if the fault schedule prevents quiescence within the tick budget.
//
// Crash semantics. A crash takes the replica down mid-run: packets addressed
// to it are lost and it stops generating. Its durable state is (a) the
// protocol snapshot — for CSS the css.Client.Save JSON, round-tripped
// through css.RestoreClient at recovery; for CSCW the in-memory replica
// (modeling perfect persistence) — and (b) the session outbox/cursor
// (faultnet.State). On recovery the restored client replays its
// unacknowledged operations via session retransmission; the server's
// receiver discards what it had already processed, and the server's own
// retransmissions re-deliver everything the client missed while down. A
// LostState crash instead retires the replica permanently
// (css.Server.RemoveClient) and later rejoins a FRESH client from a server
// snapshot (css.NewClientFromSnapshot): its unacknowledged operations are
// gone, which is the honest contract of losing the disk.
//
// After quiescence the runner verifies the re-established correctness
// claims itself: all (non-retired) replicas must hold identical documents,
// and, when recording, the history must satisfy the convergence and weak
// list specifications (spec.CheckConvergence, spec.CheckWeak). Any
// violation is returned as an error — so a chaos run that returns a nil
// error IS the property holding under that fault schedule.

// chaosGenProb is the per-tick probability that an alive client with quota
// remaining generates an operation; it spreads generation across the fault
// schedule instead of front-loading it.
const chaosGenProb = 0.5

// ChaosHorizon estimates the tick span of the generation phase of a chaos
// run with the given per-client quota — the window within which scheduled
// partitions and crashes should land to interact with live traffic (used by
// callers building random fault schedules).
func ChaosHorizon(opsPerClient int) int {
	return int(float64(opsPerClient)/chaosGenProb)*2 + 20
}

// chaosCrashable is implemented by adapters whose clients can crash and
// recover from persisted state. save returns the durable snapshot (nil when
// the adapter retains the replica in memory, modeling perfect persistence).
type chaosCrashable interface {
	saveClient(i int) ([]byte, error)
	restoreClient(i int, data []byte) error
}

// chaosRejoinable is implemented by adapters supporting lost-state crashes:
// retiring a replica permanently and joining a fresh one mid-run from a
// server snapshot. Both return the replica's document name.
type chaosRejoinable interface {
	retireClient(i int) (string, error)
	joinClient() (idx int, name string, err error)
}

// chaosClient is the runner's per-client connection state.
type chaosClient struct {
	c2s, s2c *faultnet.Link     // client→server and server→client links
	cEnd     *faultnet.Endpoint // client side of the session
	sEnd     *faultnet.Endpoint // server side of the session
	alive    bool
	retired  bool
	gen      int // operations generated so far
	quota    int // operations to generate in total
	saved    []byte
	sess     faultnet.State
}

// runChaos executes the unreliable-network runtime. Only CSS and CSCW are
// supported: they are the session-oriented protocols whose FIFO-exactly-once
// assumption the session layer restores.
func runChaos(p Protocol, cfg AsyncConfig) (*AsyncResult, error) {
	ad, hist, err := newRun(p, cfg)
	if err != nil {
		return nil, err
	}
	fc := *cfg.Faults
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	crasher, ok := ad.(chaosCrashable)
	if !ok {
		return nil, fmt.Errorf("sim: chaos runtime supports css and cscw, not %q", p)
	}
	rejoiner, _ := ad.(chaosRejoinable)
	for _, cr := range fc.Crashes {
		if cr.Client < 0 || cr.Client >= cfg.Clients {
			return nil, fmt.Errorf("sim: crash event for client %d outside [0,%d)", cr.Client, cfg.Clients)
		}
		if cr.LostState && rejoiner == nil {
			return nil, fmt.Errorf("sim: protocol %q does not support lost-state rejoin", p)
		}
	}

	net := faultnet.New(&fc)
	clients := make([]*chaosClient, 0, cfg.Clients)
	connect := func(name string) *chaosClient {
		c2s := net.NewLink(name + "->s")
		s2c := net.NewLink("s->" + name)
		return &chaosClient{
			c2s:   c2s,
			s2c:   s2c,
			cEnd:  faultnet.Connect(name, c2s, s2c),
			sEnd:  faultnet.Connect("s:"+name, s2c, c2s),
			alive: true,
		}
	}
	for _, id := range clientIDs(cfg.Clients) {
		cl := connect(id.String())
		cl.quota = cfg.OpsPerClient
		clients = append(clients, cl)
	}
	retiredNames := []string{}

	r := rand.New(rand.NewSource(cfg.Seed))
	valCounter := 0
	alphabet := DefaultAlphabet

	// Tick budget: the latest scheduled event, plus generous room for
	// generation and for retransmission tails at high loss rates.
	lastEvent := 0
	for _, w := range fc.Partitions {
		if w.Until > lastEvent {
			lastEvent = w.Until
		}
	}
	for _, cr := range fc.Crashes {
		if cr.RecoverAt > lastEvent {
			lastEvent = cr.RecoverAt
		}
	}
	total := cfg.Clients * cfg.OpsPerClient
	maxTicks := lastEvent + total*100 + 2000

	setPartition := func(w faultnet.Partition, down bool) {
		for i, cl := range clients {
			if w.Client != -1 && w.Client != i {
				continue
			}
			cl.c2s.SetDown(down)
			cl.s2c.SetDown(down)
		}
	}
	crash := func(i int) error {
		cl := clients[i]
		if !cl.alive || cl.retired {
			return fmt.Errorf("sim: crash event for client %d overlaps an earlier one", i)
		}
		data, err := crasher.saveClient(i)
		if err != nil {
			return fmt.Errorf("sim: crash save client %d: %w", i, err)
		}
		cl.saved = data
		cl.sess = cl.cEnd.Snapshot()
		cl.alive = false
		cl.s2c.Clear() // packets in flight to the dead host are lost
		return nil
	}
	recover := func(i int, lost bool) error {
		cl := clients[i]
		if lost {
			name, err := rejoiner.retireClient(i)
			if err != nil {
				return fmt.Errorf("sim: retire client %d: %w", i, err)
			}
			retiredNames = append(retiredNames, name)
			cl.retired = true
			cl.c2s.Clear()
			cl.s2c.Clear()
			j, _, err := rejoiner.joinClient()
			if err != nil {
				return fmt.Errorf("sim: rejoin after client %d: %w", i, err)
			}
			nc := connect(opid.ClientID(j + 1).String())
			nc.quota = cl.quota - cl.gen // the newcomer inherits the lost quota
			if j != len(clients) {
				return fmt.Errorf("sim: rejoin index %d, want %d", j, len(clients))
			}
			clients = append(clients, nc)
			return nil
		}
		if err := crasher.restoreClient(i, cl.saved); err != nil {
			return fmt.Errorf("sim: recover client %d: %w", i, err)
		}
		cl.cEnd.Restore(cl.sess) // replays the unacknowledged outbox
		cl.alive = true
		cl.saved, cl.sess = nil, faultnet.State{}
		return nil
	}

	now := 0
	for ; now <= maxTicks; now++ {
		// 0. The caller can abort the run between ticks.
		if cfg.Stop != nil {
			select {
			case <-cfg.Stop:
				return nil, ErrStopped
			default:
			}
		}
		// 1. Scheduled faults fire at the start of their tick.
		for _, w := range fc.Partitions {
			if now == w.From {
				setPartition(w, true)
			}
			if now == w.Until {
				setPartition(w, false)
			}
		}
		for _, cr := range fc.Crashes {
			if now == cr.At {
				if err := crash(cr.Client); err != nil {
					return nil, err
				}
			}
			if now == cr.RecoverAt {
				if err := recover(cr.Client, cr.LostState); err != nil {
					return nil, err
				}
			}
		}

		// 2. Hosts that are down lose whatever arrives at them.
		for _, cl := range clients {
			if !cl.alive {
				cl.s2c.Receive()
			}
			if cl.retired {
				cl.c2s.Receive()
			}
		}

		// 3. Alive clients drain their sessions.
		for i, cl := range clients {
			if !cl.alive {
				continue
			}
			for _, m := range cl.cEnd.Deliver() {
				if err := ad.clientRecv(i, m); err != nil {
					return nil, fmt.Errorf("sim: chaos (seed %d, tick %d): client %d: %w", cfg.Seed, now, i+1, err)
				}
			}
		}

		// 4. Alive clients generate operations.
		for i, cl := range clients {
			if !cl.alive || cl.gen >= cl.quota || r.Float64() >= chaosGenProb {
				continue
			}
			docLen := len(ad.doc(i))
			var msg any
			var err error
			if docLen > 0 && r.Float64() < cfg.DeleteRatio {
				msg, err = ad.genDel(i, r.Intn(docLen))
			} else {
				val := alphabet[valCounter%len(alphabet)]
				valCounter++
				msg, err = ad.genIns(i, val, r.Intn(docLen+1))
			}
			if err != nil {
				return nil, fmt.Errorf("sim: chaos (seed %d, tick %d): client %d: %w", cfg.Seed, now, i+1, err)
			}
			cl.gen++
			cl.cEnd.Send(msg)
		}

		// 5. The server drains its per-client sessions and redirects.
		for i, cl := range clients {
			if cl.retired {
				continue
			}
			for _, m := range cl.sEnd.Deliver() {
				outs, err := ad.serverRecv(i, m)
				if err != nil {
					return nil, fmt.Errorf("sim: chaos (seed %d, tick %d): server: %w", cfg.Seed, now, err)
				}
				for _, d := range outs {
					if clients[d.to].retired {
						continue
					}
					clients[d.to].sEnd.Send(d.msg)
				}
			}
		}

		// 6. Retransmission timers. The server keeps retransmitting to
		// crashed clients (it cannot know they are down) — that is exactly
		// the recovery path; a dead client's own timers do not run.
		for _, cl := range clients {
			if cl.alive {
				cl.cEnd.Tick()
			}
			if !cl.retired {
				cl.sEnd.Tick()
			}
		}
		net.Tick()

		// 7. Quiescence: every event fired, every quota filled, every
		// session acknowledged, nothing in flight.
		eventsPending := false
		for _, w := range fc.Partitions {
			if w.From > now || w.Until > now {
				eventsPending = true
			}
		}
		for _, cr := range fc.Crashes {
			if cr.At > now || cr.RecoverAt > now {
				eventsPending = true
			}
		}
		done := !eventsPending && net.Pending() == 0
		for _, cl := range clients {
			if cl.retired {
				continue
			}
			if !cl.alive || cl.gen < cl.quota || !cl.cEnd.Idle() || !cl.sEnd.Idle() {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	if now > maxTicks {
		return nil, fmt.Errorf("sim: chaos run (seed %d) did not quiesce within %d ticks — fault schedule starves delivery", cfg.Seed, maxTicks)
	}

	res := result(ad, len(clients), hist)
	netStats := net.Stats()
	res.Net = &netStats
	res.Ticks = now
	for _, name := range retiredNames {
		delete(res.Docs, name)
	}

	// The re-established correctness claims, verified per fault schedule.
	var ref []list.Elem
	var refName string
	first := true
	for name, doc := range res.Docs {
		if first {
			ref, refName, first = doc, name, false
			continue
		}
		if !list.ElemsEqual(ref, doc) {
			return res, fmt.Errorf("sim: chaos divergence (seed %d): %s holds %q but %s holds %q",
				cfg.Seed, refName, list.Render(ref), name, list.Render(doc))
		}
	}
	if hist != nil {
		if err := spec.CheckConvergence(hist); err != nil {
			return res, fmt.Errorf("sim: chaos (seed %d): convergence spec: %w", cfg.Seed, err)
		}
		if err := spec.CheckWeak(hist); err != nil {
			return res, fmt.Errorf("sim: chaos (seed %d): weak list spec: %w", cfg.Seed, err)
		}
	}
	return res, nil
}
