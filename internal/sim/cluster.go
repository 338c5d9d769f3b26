// Package sim is the simulation harness: it drives the seven protocols
// (internal/css, internal/cscw, the CRDT baselines internal/rga,
// internal/logoot, internal/treedoc and internal/woot, and the incorrect
// internal/broken) through deterministic schedules, seeded random
// interleavings, a concurrent goroutine/channel runtime and an
// unreliable-network runtime, recording histories for the specification
// checkers.
//
// The network model matches Section 4.4 of the paper: a star topology with
// one FIFO channel per direction between each client and the central
// server. Each protocol is wrapped once, by an adapter (adapter.go) that
// holds its server and clients; three runtimes drive the same adapters. The
// deterministic Cluster keeps the channels as in-memory queues stepped
// explicitly (so tests can reproduce the paper's figures exactly); RunAsync
// (async.go) runs each replica in its own goroutine with real Go channels;
// with AsyncConfig.Faults set, runChaos (chaos.go) routes every message over
// faulty links on a virtual clock.
package sim

import (
	"fmt"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/statespace"
)

// Protocol names a protocol implementation under test.
type Protocol string

// The protocols the harness can drive.
const (
	CSS     Protocol = "css"
	CSCW    Protocol = "cscw"
	RGA     Protocol = "rga"
	Logoot  Protocol = "logoot"
	TreeDoc Protocol = "treedoc"
	WOOT    Protocol = "woot"
	Broken  Protocol = "broken"
)

// SpaceStat describes one state-space-like structure retained by a replica,
// for the E1/E3 experiments.
type SpaceStat struct {
	Replica string
	Name    string
	States  int
	Edges   int
	Bytes   int
}

// Cluster is a client/server system under deterministic control. All
// methods are single-threaded; use Async for the concurrent runtime.
type Cluster interface {
	// Protocol returns the protocol name.
	Protocol() Protocol
	// Clients returns the client identifiers, in order.
	Clients() []opid.ClientID
	// GenerateIns makes client c invoke Ins(val, pos).
	GenerateIns(c opid.ClientID, val rune, pos int) error
	// GenerateDel makes client c invoke a delete at pos.
	GenerateDel(c opid.ClientID, pos int) error
	// DeliverToServer delivers the next pending message from client c to the
	// server; it reports whether a message was pending.
	DeliverToServer(c opid.ClientID) (bool, error)
	// DeliverToClient delivers the next pending message from the server to
	// client c; it reports whether a message was pending.
	DeliverToClient(c opid.ClientID) (bool, error)
	// PendingToServer and PendingToClient return queue lengths.
	PendingToServer(c opid.ClientID) int
	PendingToClient(c opid.ClientID) int
	// Read records a do(Read, w) event at client c and returns w.
	Read(c opid.ClientID) []list.Elem
	// ReadServer records a read at the server (no-op list for protocols
	// whose server keeps no document, e.g. the broken relay).
	ReadServer() []list.Elem
	// Document returns the current list at the named replica ("c1", ...,
	// or "server").
	Document(replica string) ([]list.Elem, error)
	// History returns the recorded history (nil if recording is disabled).
	History() *core.History
	// Stats returns the per-replica metadata structures for E1/E3.
	Stats() []SpaceStat
}

// Config configures NewCluster.
type Config struct {
	Clients int      // number of clients (n ≥ 1)
	Initial list.Doc // initial document at every replica (nil = empty)
	Record  bool     // record a history
	// SpaceOptions is passed to the CSS state-spaces (tests use
	// statespace.WithDocs / WithCP1Check); ignored by other protocols.
	SpaceOptions []statespace.Option
	// CompactContexts switches the CSS protocol to the two-counter wire
	// context encoding (css/compactctx.go); ignored by other protocols.
	CompactContexts bool
}

// NewCluster builds a deterministic cluster for the given protocol.
func NewCluster(p Protocol, cfg Config) (Cluster, error) {
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("sim: need at least 1 client, got %d", cfg.Clients)
	}
	hist, rec := newHistory(cfg.Record, cfg.Initial, false)
	ad, err := newAdapter(p, cfg, rec)
	if err != nil {
		return nil, err
	}
	return &cluster{
		p:        p,
		ids:      clientIDs(cfg.Clients),
		ad:       ad,
		toServer: make([]fifo, cfg.Clients),
		toClient: make([]fifo, cfg.Clients),
		hist:     hist,
	}, nil
}

// fifo is an in-memory FIFO queue of messages.
type fifo struct{ q []any }

func (f *fifo) push(v any) { f.q = append(f.q, v) }
func (f *fifo) len() int   { return len(f.q) }
func (f *fifo) pop() (any, bool) {
	if len(f.q) == 0 {
		return nil, false
	}
	v := f.q[0]
	f.q = f.q[1:]
	return v, true
}

// cluster is the deterministic Cluster: a protocol's adapter and one
// in-memory FIFO queue per client and direction, stepped by the caller.
type cluster struct {
	p                  Protocol
	ids                []opid.ClientID
	ad                 adapter
	toServer, toClient []fifo
	hist               *core.History
}

func (c *cluster) Protocol() Protocol       { return c.p }
func (c *cluster) Clients() []opid.ClientID { return append([]opid.ClientID(nil), c.ids...) }
func (c *cluster) History() *core.History   { return c.hist }

// index maps a client identifier to the adapter's index.
func (c *cluster) index(id opid.ClientID) (int, error) {
	i := int(id) - 1
	if i < 0 || i >= len(c.ids) {
		return 0, fmt.Errorf("sim: unknown client %s", id)
	}
	return i, nil
}

func (c *cluster) GenerateIns(id opid.ClientID, val rune, pos int) error {
	return c.generate(id, func(i int) (any, error) { return c.ad.genIns(i, val, pos) })
}

func (c *cluster) GenerateDel(id opid.ClientID, pos int) error {
	return c.generate(id, func(i int) (any, error) { return c.ad.genDel(i, pos) })
}

func (c *cluster) generate(id opid.ClientID, gen func(i int) (any, error)) error {
	i, err := c.index(id)
	if err != nil {
		return err
	}
	msg, err := gen(i)
	if err != nil {
		return err
	}
	c.toServer[i].push(msg)
	return nil
}

func (c *cluster) DeliverToServer(id opid.ClientID) (bool, error) {
	i, err := c.index(id)
	if err != nil {
		return false, err
	}
	msg, ok := c.toServer[i].pop()
	if !ok {
		return false, nil
	}
	return true, c.send(c.ad.serverRecv(i, msg))
}

// send queues the server's deliveries.
func (c *cluster) send(ds []delivery, err error) error {
	if err != nil {
		return err
	}
	for _, d := range ds {
		c.toClient[d.to].push(d.msg)
	}
	return nil
}

func (c *cluster) DeliverToClient(id opid.ClientID) (bool, error) {
	i, err := c.index(id)
	if err != nil {
		return false, err
	}
	msg, ok := c.toClient[i].pop()
	if !ok {
		return false, nil
	}
	return true, c.ad.clientRecv(i, msg)
}

func (c *cluster) PendingToServer(id opid.ClientID) int { return c.toServer[id-1].len() }
func (c *cluster) PendingToClient(id opid.ClientID) int { return c.toClient[id-1].len() }

func (c *cluster) Read(id opid.ClientID) []list.Elem { return c.ad.read(int(id) - 1) }
func (c *cluster) ReadServer() []list.Elem           { return c.ad.readServer() }

func (c *cluster) Document(replica string) ([]list.Elem, error) {
	if replica == opid.ServerName {
		if doc, ok := c.ad.serverDoc(); ok {
			return doc, nil
		}
		return nil, fmt.Errorf("sim: unknown replica %q (the %s server keeps no document)", replica, c.p)
	}
	for i, id := range c.ids {
		if id.String() == replica {
			return c.ad.doc(i), nil
		}
	}
	return nil, fmt.Errorf("sim: unknown replica %q", replica)
}

func (c *cluster) Stats() []SpaceStat { return c.ad.stats() }

// SpacesOf returns the CSS state-spaces when the cluster runs the CSS
// protocol, for tests that assert Proposition 6.6; the first entry is the
// server's.
func SpacesOf(c Cluster) ([]*statespace.Space, bool) {
	a, ok := cssOf(c)
	if !ok {
		return nil, false
	}
	return a.spaces(), true
}

// AdvanceFrontier triggers the CSS garbage-collection extension on a CSS
// cluster: the server computes the stability frontier, compacts its own
// state-space, and enqueues MsgFrontier messages for every client (delivered
// on subsequent DeliverToClient steps). It reports whether the cluster
// supports the extension. Other protocols return (false, nil).
func AdvanceFrontier(c Cluster) (bool, error) {
	a, ok := cssOf(c)
	if !ok {
		return false, nil
	}
	return true, c.(*cluster).send(a.advanceFrontier())
}

// cssOf returns the CSS adapter of a cluster that runs CSS.
func cssOf(c Cluster) (*cssAdapter, bool) {
	cl, ok := c.(*cluster)
	if !ok {
		return nil, false
	}
	a, ok := cl.ad.(*cssAdapter)
	return a, ok
}
