package sim

import (
	"fmt"
	"math/rand"
	"sync"

	"jupiter/internal/core"
	"jupiter/internal/faultnet"
	"jupiter/internal/list"
	"jupiter/internal/opid"
)

// AsyncConfig configures RunAsync.
//
// Channel-capacity invariant (Faults == nil): the goroutine runtime wires
// replicas with buffered channels whose capacities equal the exact total
// message count of the run (Clients × OpsPerClient inbound to the server,
// and the same bound per client outbound), so in a correct run no send ever
// blocks and the run cannot deadlock. RunAsync enforces the invariant
// explicitly: a send that would block — which can only mean an adapter
// produced more messages than its contract promises — aborts the run with
// an error instead of deadlocking it.
type AsyncConfig struct {
	Clients      int
	OpsPerClient int
	Seed         int64
	DeleteRatio  float64
	Initial      list.Doc
	Record       bool

	// Stop, when non-nil, lets the caller abort the run early: once the
	// channel is closed, every goroutine (or the chaos event loop) winds
	// down promptly and RunAsync returns ErrStopped. Closing Stop after the
	// run has completed has no effect. Typically wired to
	// context.Context.Done().
	Stop <-chan struct{}

	// Faults, when non-nil, replaces the reliable FIFO channels with the
	// unreliable-network runtime: every message crosses a faultnet link
	// (seeded drop/duplicate/reorder/delay, timed partitions, replica
	// crashes) wrapped by a faultnet session that restores the
	// FIFO-exactly-once contract. Only CSS and CSCW support this mode; the
	// run is a deterministic virtual-time event loop, and the result is
	// additionally self-checked (convergence, and the convergence + weak
	// list specifications when Record is set). See chaos.go.
	Faults *faultnet.Config
}

// AsyncResult is what a concurrent run produces after all goroutines have
// joined: the final document of every replica, the recorded history (if
// enabled), and the metadata stats.
type AsyncResult struct {
	Docs    map[string][]list.Elem
	History *core.History
	Stats   []SpaceStat

	// Net and Ticks are set by the unreliable-network runtime only
	// (AsyncConfig.Faults): the packet/session fault counters and the
	// virtual-time length of the run.
	Net   *faultnet.Stats
	Ticks int
}

// ErrStopped reports that a run was aborted via AsyncConfig.Stop before it
// quiesced.
var ErrStopped = fmt.Errorf("sim: run stopped by caller")

// RunAsync executes a full random workload with every replica in its own
// goroutine, connected by buffered Go channels (one per direction per
// client, FIFO like the paper's TCP connections). It returns once the
// system has quiesced: every operation generated, serialized, and delivered
// everywhere.
//
// Supported protocols: CSS, CSCW, RGA, Logoot, TreeDoc, WOOT. The channel
// capacities are sized to
// the (known, finite) total message count of the run, so no goroutine ever
// blocks on send — the run cannot deadlock, and every goroutine has a
// predictable exit point. The invariant is enforced, not assumed: a send
// that would block aborts the run with an error (see AsyncConfig).
//
// With cfg.Faults set, the reliable channels are replaced by the
// unreliable-network runtime (chaos.go): CSS/CSCW only, deterministic
// virtual time, fault injection, session-level retransmission, and
// crash/recovery.
func RunAsync(p Protocol, cfg AsyncConfig) (*AsyncResult, error) {
	if cfg.Faults != nil {
		return runChaos(p, cfg)
	}
	if p == Broken {
		// The relay keeps no server document to report, and its clients
		// diverge by design.
		return nil, fmt.Errorf("sim: async runtime does not support protocol %q", p)
	}
	ad, hist, err := newRun(p, cfg)
	if err != nil {
		return nil, err
	}

	n := cfg.Clients
	total := n * cfg.OpsPerClient
	type envelope struct {
		from int
		msg  any
	}
	// Capacities cover the whole run so sends never block (documented
	// deviation from the size-one guideline: the bound is exact, known up
	// front, and what makes the run deadlock-free).
	serverIn := make(chan envelope, total)
	clientIn := make([]chan any, n)
	for i := range clientIn {
		clientIn[i] = make(chan any, total)
	}

	var (
		mu       sync.Mutex
		firstErr error
	)
	stop := make(chan struct{})
	var stopOnce sync.Once
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stopOnce.Do(func() { close(stop) })
	}

	// Honor the caller's stop signal: fold it into the internal one so every
	// existing select wakes up. The watcher itself exits when the run ends.
	runDone := make(chan struct{})
	defer close(runDone)
	if cfg.Stop != nil {
		go func() {
			select {
			case <-cfg.Stop:
				fail(ErrStopped)
			case <-runDone:
			}
		}()
	}

	var wg sync.WaitGroup

	// Server goroutine: serializes exactly `total` operations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < total; k++ {
			var env envelope
			select {
			case env = <-serverIn:
			case <-stop:
				return
			}
			outs, err := ad.serverRecv(env.from, env.msg)
			if err != nil {
				fail(fmt.Errorf("server: %w", err))
				return
			}
			for _, d := range outs {
				select {
				case clientIn[d.to] <- d.msg:
				default:
					// The capacity invariant (see AsyncConfig) is broken:
					// the adapter produced more messages than the run's
					// total. Fail loudly instead of deadlocking.
					fail(fmt.Errorf("sim: async invariant violated: channel to client %d full (cap %d)", d.to+1, total))
					return
				}
			}
		}
	}()

	// Client goroutines.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			// Every operation reaches every client: the others' as
			// broadcasts, its own as acknowledgements if the protocol
			// sends them.
			expected := total
			if !ad.acks() {
				expected -= cfg.OpsPerClient
			}
			gen, recv := 0, 0
			alphabet := DefaultAlphabet
			for gen < cfg.OpsPerClient || recv < expected {
				// Opportunistically drain the inbound channel first.
				select {
				case m := <-clientIn[i]:
					if err := ad.clientRecv(i, m); err != nil {
						fail(fmt.Errorf("client %d: %w", i+1, err))
						return
					}
					recv++
					continue
				case <-stop:
					return
				default:
				}
				if gen < cfg.OpsPerClient {
					docLen := len(ad.doc(i))
					var msg any
					var err error
					if docLen > 0 && r.Float64() < cfg.DeleteRatio {
						msg, err = ad.genDel(i, r.Intn(docLen))
					} else {
						val := alphabet[(i*cfg.OpsPerClient+gen)%len(alphabet)]
						msg, err = ad.genIns(i, val, r.Intn(docLen+1))
					}
					if err != nil {
						fail(fmt.Errorf("client %d: %w", i+1, err))
						return
					}
					gen++
					select {
					case serverIn <- envelope{from: i, msg: msg}:
					default:
						// See the capacity invariant on AsyncConfig.
						fail(fmt.Errorf("sim: async invariant violated: server channel full (cap %d)", total))
						return
					}
					continue
				}
				// Everything generated; block for the remaining messages.
				select {
				case m := <-clientIn[i]:
					if err := ad.clientRecv(i, m); err != nil {
						fail(fmt.Errorf("client %d: %w", i+1, err))
						return
					}
					recv++
				case <-stop:
					return
				}
			}
		}(i)
	}

	wg.Wait()
	mu.Lock()
	err = firstErr
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	return result(ad, n, hist), nil
}

// newRun validates cfg and builds protocol p's adapter for a run of the
// goroutine or the chaos runtime.
func newRun(p Protocol, cfg AsyncConfig) (adapter, *core.History, error) {
	if cfg.Clients < 1 || cfg.OpsPerClient < 0 {
		return nil, nil, fmt.Errorf("sim: bad async config %+v", cfg)
	}
	hist, rec := newHistory(cfg.Record, cfg.Initial, true)
	ad, err := newAdapter(p, Config{Clients: cfg.Clients, Initial: cfg.Initial}, rec)
	return ad, hist, err
}

// result collects the documents of the server and of clients c1 … cn, and
// the adapter's stats.
func result(ad adapter, n int, hist *core.History) *AsyncResult {
	res := &AsyncResult{Docs: make(map[string][]list.Elem, n+1), History: hist, Stats: ad.stats()}
	if doc, ok := ad.serverDoc(); ok {
		res.Docs[opid.ServerName] = doc
	}
	for i := 0; i < n; i++ {
		res.Docs[opid.ClientID(i+1).String()] = ad.doc(i)
	}
	return res
}
