// Package sim is the simulation harness: it drives the protocols
// (internal/css, internal/cscw, internal/rga, internal/broken) through
// deterministic schedules, seeded random interleavings, and a concurrent
// goroutine/channel runtime, recording histories for the specification
// checkers.
//
// The network model matches Section 4.4 of the paper: a star topology with
// one FIFO channel per direction between each client and the central
// server. The deterministic Cluster implementations keep the channels as
// in-memory queues stepped explicitly (so tests can reproduce the paper's
// figures exactly); the Async runtime (async.go) runs each replica in its
// own goroutine with real Go channels.
package sim

import (
	"fmt"
	"unsafe"

	"jupiter/internal/broken"
	"jupiter/internal/core"
	"jupiter/internal/cscw"
	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/logoot"
	"jupiter/internal/opid"
	"jupiter/internal/rga"
	"jupiter/internal/statespace"
	"jupiter/internal/treedoc"
	"jupiter/internal/woot"
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
	ids := make([]opid.ClientID, cfg.Clients)
	for i := range ids {
		ids[i] = opid.ClientID(i + 1)
	}
	var rec core.Recorder
	var hist *core.History
	if cfg.Record {
		hist = &core.History{}
		if cfg.Initial != nil {
			hist.Seed = cfg.Initial.Elems()
		}
		rec = hist
	}
	switch p {
	case CSS:
		return newCSSCluster(ids, cfg, rec, hist), nil
	case CSCW:
		return newCSCWCluster(ids, cfg, rec, hist), nil
	case RGA:
		return newRGACluster(ids, rec, hist), nil
	case Logoot:
		return newLogootCluster(ids, rec, hist), nil
	case TreeDoc:
		return newTreedocCluster(ids, rec, hist), nil
	case WOOT:
		return newWootCluster(ids, rec, hist), nil
	case Broken:
		return newBrokenCluster(ids, cfg, rec, hist), nil
	default:
		return nil, fmt.Errorf("sim: unknown protocol %q", p)
	}
}

// fifo is a generic in-memory FIFO queue.
type fifo[T any] struct{ q []T }

func (f *fifo[T]) push(v T) { f.q = append(f.q, v) }
func (f *fifo[T]) len() int { return len(f.q) }
func (f *fifo[T]) pop() (T, bool) {
	var zero T
	if len(f.q) == 0 {
		return zero, false
	}
	v := f.q[0]
	f.q = f.q[1:]
	return v, true
}

// ---------------------------------------------------------------- CSS ----

type cssCluster struct {
	ids      []opid.ClientID
	server   *css.Server
	clients  map[opid.ClientID]*css.Client
	toServer map[opid.ClientID]*fifo[css.ClientMsg]
	toClient map[opid.ClientID]*fifo[css.ServerMsg]
	hist     *core.History
}

func newCSSCluster(ids []opid.ClientID, cfg Config, rec core.Recorder, hist *core.History) *cssCluster {
	c := &cssCluster{
		ids:      ids,
		server:   css.NewServer(ids, cfg.Initial, rec, cfg.SpaceOptions...),
		clients:  make(map[opid.ClientID]*css.Client, len(ids)),
		toServer: make(map[opid.ClientID]*fifo[css.ClientMsg], len(ids)),
		toClient: make(map[opid.ClientID]*fifo[css.ServerMsg], len(ids)),
		hist:     hist,
	}
	if cfg.CompactContexts {
		c.server.UseCompactContexts()
	}
	for _, id := range ids {
		cl := css.NewClient(id, cfg.Initial, rec, cfg.SpaceOptions...)
		if cfg.CompactContexts {
			cl.UseCompactContexts()
		}
		c.clients[id] = cl
		c.toServer[id] = &fifo[css.ClientMsg]{}
		c.toClient[id] = &fifo[css.ServerMsg]{}
	}
	return c
}

func (c *cssCluster) Protocol() Protocol       { return CSS }
func (c *cssCluster) Clients() []opid.ClientID { return append([]opid.ClientID(nil), c.ids...) }
func (c *cssCluster) History() *core.History   { return c.hist }

func (c *cssCluster) GenerateIns(id opid.ClientID, val rune, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	msg, err := cl.GenerateIns(val, pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(msg)
	return nil
}

func (c *cssCluster) GenerateDel(id opid.ClientID, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	msg, err := cl.GenerateDel(pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(msg)
	return nil
}

func (c *cssCluster) DeliverToServer(id opid.ClientID) (bool, error) {
	q, ok := c.toServer[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	msg, any := q.pop()
	if !any {
		return false, nil
	}
	outs, err := c.server.Receive(msg)
	if err != nil {
		return true, err
	}
	for _, out := range outs {
		c.toClient[out.To].push(out.Msg)
	}
	return true, nil
}

func (c *cssCluster) DeliverToClient(id opid.ClientID) (bool, error) {
	q, ok := c.toClient[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	msg, any := q.pop()
	if !any {
		return false, nil
	}
	return true, c.clients[id].Receive(msg)
}

func (c *cssCluster) PendingToServer(id opid.ClientID) int { return c.toServer[id].len() }
func (c *cssCluster) PendingToClient(id opid.ClientID) int { return c.toClient[id].len() }

func (c *cssCluster) Read(id opid.ClientID) []list.Elem { return c.clients[id].Read() }
func (c *cssCluster) ReadServer() []list.Elem           { return c.server.Read() }

func (c *cssCluster) Document(replica string) ([]list.Elem, error) {
	if replica == opid.ServerName {
		return c.server.Document(), nil
	}
	for _, id := range c.ids {
		if id.String() == replica {
			return c.clients[id].Document(), nil
		}
	}
	return nil, fmt.Errorf("sim: unknown replica %q", replica)
}

func (c *cssCluster) Stats() []SpaceStat {
	out := make([]SpaceStat, 0, len(c.ids)+1)
	sp := c.server.Space()
	out = append(out, SpaceStat{Replica: opid.ServerName, Name: "CSSs", States: sp.NumStates(), Edges: sp.NumEdges(), Bytes: sp.ByteSize()})
	for _, id := range c.ids {
		sp := c.clients[id].Space()
		out = append(out, SpaceStat{Replica: id.String(), Name: "CSS" + id.String(), States: sp.NumStates(), Edges: sp.NumEdges(), Bytes: sp.ByteSize()})
	}
	return out
}

// Spaces exposes the CSS state-spaces for structural assertions
// (Proposition 6.6 tests); the first entry is the server's.
func (c *cssCluster) Spaces() []*statespace.Space {
	out := []*statespace.Space{c.server.Space()}
	for _, id := range c.ids {
		out = append(out, c.clients[id].Space())
	}
	return out
}

// SpacesOf returns the CSS state-spaces when the cluster runs the CSS
// protocol, for tests that assert Proposition 6.6.
func SpacesOf(c Cluster) ([]*statespace.Space, bool) {
	cc, ok := c.(*cssCluster)
	if !ok {
		return nil, false
	}
	return cc.Spaces(), true
}

// --------------------------------------------------------------- CSCW ----

type cscwCluster struct {
	ids      []opid.ClientID
	server   *cscw.Server
	clients  map[opid.ClientID]*cscw.Client
	toServer map[opid.ClientID]*fifo[cscw.ClientMsg]
	toClient map[opid.ClientID]*fifo[cscw.ServerMsg]
	hist     *core.History
}

func newCSCWCluster(ids []opid.ClientID, cfg Config, rec core.Recorder, hist *core.History) *cscwCluster {
	c := &cscwCluster{
		ids:      ids,
		server:   cscw.NewServer(ids, cfg.Initial, rec),
		clients:  make(map[opid.ClientID]*cscw.Client, len(ids)),
		toServer: make(map[opid.ClientID]*fifo[cscw.ClientMsg], len(ids)),
		toClient: make(map[opid.ClientID]*fifo[cscw.ServerMsg], len(ids)),
		hist:     hist,
	}
	for _, id := range ids {
		c.clients[id] = cscw.NewClient(id, cfg.Initial, rec)
		c.toServer[id] = &fifo[cscw.ClientMsg]{}
		c.toClient[id] = &fifo[cscw.ServerMsg]{}
	}
	return c
}

func (c *cscwCluster) Protocol() Protocol       { return CSCW }
func (c *cscwCluster) Clients() []opid.ClientID { return append([]opid.ClientID(nil), c.ids...) }
func (c *cscwCluster) History() *core.History   { return c.hist }

func (c *cscwCluster) GenerateIns(id opid.ClientID, val rune, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	msg, err := cl.GenerateIns(val, pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(msg)
	return nil
}

func (c *cscwCluster) GenerateDel(id opid.ClientID, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	msg, err := cl.GenerateDel(pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(msg)
	return nil
}

func (c *cscwCluster) DeliverToServer(id opid.ClientID) (bool, error) {
	q, ok := c.toServer[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	msg, any := q.pop()
	if !any {
		return false, nil
	}
	outs, err := c.server.Receive(msg)
	if err != nil {
		return true, err
	}
	for _, out := range outs {
		c.toClient[out.To].push(out.Msg)
	}
	return true, nil
}

func (c *cscwCluster) DeliverToClient(id opid.ClientID) (bool, error) {
	q, ok := c.toClient[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	msg, any := q.pop()
	if !any {
		return false, nil
	}
	return true, c.clients[id].Receive(msg)
}

func (c *cscwCluster) PendingToServer(id opid.ClientID) int { return c.toServer[id].len() }
func (c *cscwCluster) PendingToClient(id opid.ClientID) int { return c.toClient[id].len() }

func (c *cscwCluster) Read(id opid.ClientID) []list.Elem { return c.clients[id].Read() }
func (c *cscwCluster) ReadServer() []list.Elem           { return c.server.Read() }

func (c *cscwCluster) Document(replica string) ([]list.Elem, error) {
	if replica == opid.ServerName {
		return c.server.Document(), nil
	}
	for _, id := range c.ids {
		if id.String() == replica {
			return c.clients[id].Document(), nil
		}
	}
	return nil, fmt.Errorf("sim: unknown replica %q", replica)
}

func (c *cscwCluster) Stats() []SpaceStat {
	// A 2D state-space is priced as Space.ByteSize prices the n-ary one's
	// states and edges: the structs, plus an edge-slice and a parent-slice
	// slot per edge.
	dssBytes := func(d cscw.DSS) int {
		return d.States*int(unsafe.Sizeof(statespace.State{})) +
			d.Edges*int(unsafe.Sizeof(statespace.Edge{})+2*unsafe.Sizeof(uintptr(0)))
	}
	out := make([]SpaceStat, 0, 2*len(c.ids))
	for _, d := range c.server.DSSs() {
		out = append(out, SpaceStat{Replica: opid.ServerName, Name: d.Name, States: d.States, Edges: d.Edges, Bytes: dssBytes(d)})
	}
	for _, id := range c.ids {
		d := c.clients[id].DSS()
		out = append(out, SpaceStat{Replica: id.String(), Name: d.Name, States: d.States, Edges: d.Edges, Bytes: dssBytes(d)})
	}
	return out
}

// ---------------------------------------------------------------- RGA ----

type rgaCluster struct {
	ids      []opid.ClientID
	server   *rga.Server
	clients  map[opid.ClientID]*rga.Replica
	toServer map[opid.ClientID]*fifo[rga.Effect]
	toClient map[opid.ClientID]*fifo[rga.Effect]
	hist     *core.History
}

func newRGACluster(ids []opid.ClientID, rec core.Recorder, hist *core.History) *rgaCluster {
	c := &rgaCluster{
		ids:      ids,
		server:   rga.NewServer(ids, rec),
		clients:  make(map[opid.ClientID]*rga.Replica, len(ids)),
		toServer: make(map[opid.ClientID]*fifo[rga.Effect], len(ids)),
		toClient: make(map[opid.ClientID]*fifo[rga.Effect], len(ids)),
		hist:     hist,
	}
	for _, id := range ids {
		c.clients[id] = rga.NewReplica(id.String(), id, rec)
		c.toServer[id] = &fifo[rga.Effect]{}
		c.toClient[id] = &fifo[rga.Effect]{}
	}
	return c
}

func (c *rgaCluster) Protocol() Protocol       { return RGA }
func (c *rgaCluster) Clients() []opid.ClientID { return append([]opid.ClientID(nil), c.ids...) }
func (c *rgaCluster) History() *core.History   { return c.hist }

func (c *rgaCluster) GenerateIns(id opid.ClientID, val rune, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	eff, err := cl.GenerateIns(val, pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(eff)
	return nil
}

func (c *rgaCluster) GenerateDel(id opid.ClientID, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	eff, err := cl.GenerateDel(pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(eff)
	return nil
}

func (c *rgaCluster) DeliverToServer(id opid.ClientID) (bool, error) {
	q, ok := c.toServer[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	eff, any := q.pop()
	if !any {
		return false, nil
	}
	outs, err := c.server.Receive(id, eff)
	if err != nil {
		return true, err
	}
	for _, out := range outs {
		c.toClient[out.To].push(out.Effect)
	}
	return true, nil
}

func (c *rgaCluster) DeliverToClient(id opid.ClientID) (bool, error) {
	q, ok := c.toClient[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	eff, any := q.pop()
	if !any {
		return false, nil
	}
	return true, c.clients[id].Integrate(eff)
}

func (c *rgaCluster) PendingToServer(id opid.ClientID) int { return c.toServer[id].len() }
func (c *rgaCluster) PendingToClient(id opid.ClientID) int { return c.toClient[id].len() }

func (c *rgaCluster) Read(id opid.ClientID) []list.Elem { return c.clients[id].Read() }
func (c *rgaCluster) ReadServer() []list.Elem           { return c.server.Read() }

func (c *rgaCluster) Document(replica string) ([]list.Elem, error) {
	if replica == opid.ServerName {
		return c.server.Document(), nil
	}
	for _, id := range c.ids {
		if id.String() == replica {
			return c.clients[id].Document(), nil
		}
	}
	return nil, fmt.Errorf("sim: unknown replica %q", replica)
}

func (c *rgaCluster) Stats() []SpaceStat {
	const rgaNodeBytes = 48
	out := make([]SpaceStat, 0, len(c.ids)+1)
	out = append(out, SpaceStat{Replica: opid.ServerName, Name: "rga", States: c.server.TotalNodes(), Bytes: c.server.TotalNodes() * rgaNodeBytes})
	for _, id := range c.ids {
		n := c.clients[id].TotalNodes()
		out = append(out, SpaceStat{Replica: id.String(), Name: "rga", States: n, Bytes: n * rgaNodeBytes})
	}
	return out
}

// ------------------------------------------------------------- Broken ----

type brokenCluster struct {
	ids      []opid.ClientID
	server   *broken.Server
	clients  map[opid.ClientID]*broken.Client
	toServer map[opid.ClientID]*fifo[broken.Msg]
	toClient map[opid.ClientID]*fifo[broken.Msg]
	hist     *core.History
}

func newBrokenCluster(ids []opid.ClientID, cfg Config, rec core.Recorder, hist *core.History) *brokenCluster {
	c := &brokenCluster{
		ids:      ids,
		server:   broken.NewServer(ids),
		clients:  make(map[opid.ClientID]*broken.Client, len(ids)),
		toServer: make(map[opid.ClientID]*fifo[broken.Msg], len(ids)),
		toClient: make(map[opid.ClientID]*fifo[broken.Msg], len(ids)),
		hist:     hist,
	}
	for _, id := range ids {
		c.clients[id] = broken.NewClient(id, cfg.Initial, rec)
		c.toServer[id] = &fifo[broken.Msg]{}
		c.toClient[id] = &fifo[broken.Msg]{}
	}
	return c
}

func (c *brokenCluster) Protocol() Protocol       { return Broken }
func (c *brokenCluster) Clients() []opid.ClientID { return append([]opid.ClientID(nil), c.ids...) }
func (c *brokenCluster) History() *core.History   { return c.hist }

func (c *brokenCluster) GenerateIns(id opid.ClientID, val rune, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	msg, err := cl.GenerateIns(val, pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(msg)
	return nil
}

func (c *brokenCluster) GenerateDel(id opid.ClientID, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	msg, err := cl.GenerateDel(pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(msg)
	return nil
}

func (c *brokenCluster) DeliverToServer(id opid.ClientID) (bool, error) {
	q, ok := c.toServer[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	msg, any := q.pop()
	if !any {
		return false, nil
	}
	outs, err := c.server.Receive(msg)
	if err != nil {
		return true, err
	}
	for _, out := range outs {
		c.toClient[out.To].push(out.Msg)
	}
	return true, nil
}

func (c *brokenCluster) DeliverToClient(id opid.ClientID) (bool, error) {
	q, ok := c.toClient[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	msg, any := q.pop()
	if !any {
		return false, nil
	}
	return true, c.clients[id].Receive(msg)
}

func (c *brokenCluster) PendingToServer(id opid.ClientID) int { return c.toServer[id].len() }
func (c *brokenCluster) PendingToClient(id opid.ClientID) int { return c.toClient[id].len() }

func (c *brokenCluster) Read(id opid.ClientID) []list.Elem { return c.clients[id].Read() }
func (c *brokenCluster) ReadServer() []list.Elem           { return nil }

func (c *brokenCluster) Document(replica string) ([]list.Elem, error) {
	for _, id := range c.ids {
		if id.String() == replica {
			return c.clients[id].Document(), nil
		}
	}
	return nil, fmt.Errorf("sim: unknown replica %q (the broken relay keeps no document)", replica)
}

func (c *brokenCluster) Stats() []SpaceStat { return nil }

// AdvanceFrontier triggers the CSS garbage-collection extension on a CSS
// cluster: the server computes the stability frontier, compacts its own
// state-space, and enqueues MsgFrontier messages for every client (delivered
// on subsequent DeliverToClient steps). It reports whether the cluster
// supports the extension. Other protocols return (false, nil).
func AdvanceFrontier(c Cluster) (bool, error) {
	cc, ok := c.(*cssCluster)
	if !ok {
		return false, nil
	}
	outs, err := cc.server.AdvanceFrontier()
	if err != nil {
		return true, err
	}
	for _, out := range outs {
		cc.toClient[out.To].push(out.Msg)
	}
	return true, nil
}

// ------------------------------------------------------------- Logoot ----

type logootCluster struct {
	ids      []opid.ClientID
	server   *logoot.Server
	clients  map[opid.ClientID]*logoot.Replica
	toServer map[opid.ClientID]*fifo[logoot.Effect]
	toClient map[opid.ClientID]*fifo[logoot.Effect]
	hist     *core.History
}

func newLogootCluster(ids []opid.ClientID, rec core.Recorder, hist *core.History) *logootCluster {
	c := &logootCluster{
		ids:      ids,
		server:   logoot.NewServer(ids, rec),
		clients:  make(map[opid.ClientID]*logoot.Replica, len(ids)),
		toServer: make(map[opid.ClientID]*fifo[logoot.Effect], len(ids)),
		toClient: make(map[opid.ClientID]*fifo[logoot.Effect], len(ids)),
		hist:     hist,
	}
	for _, id := range ids {
		c.clients[id] = logoot.NewReplica(id.String(), id, rec)
		c.toServer[id] = &fifo[logoot.Effect]{}
		c.toClient[id] = &fifo[logoot.Effect]{}
	}
	return c
}

func (c *logootCluster) Protocol() Protocol       { return Logoot }
func (c *logootCluster) Clients() []opid.ClientID { return append([]opid.ClientID(nil), c.ids...) }
func (c *logootCluster) History() *core.History   { return c.hist }

func (c *logootCluster) GenerateIns(id opid.ClientID, val rune, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	eff, err := cl.GenerateIns(val, pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(eff)
	return nil
}

func (c *logootCluster) GenerateDel(id opid.ClientID, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	eff, err := cl.GenerateDel(pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(eff)
	return nil
}

func (c *logootCluster) DeliverToServer(id opid.ClientID) (bool, error) {
	q, ok := c.toServer[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	eff, any := q.pop()
	if !any {
		return false, nil
	}
	outs, err := c.server.Receive(id, eff)
	if err != nil {
		return true, err
	}
	for _, out := range outs {
		c.toClient[out.To].push(out.Effect)
	}
	return true, nil
}

func (c *logootCluster) DeliverToClient(id opid.ClientID) (bool, error) {
	q, ok := c.toClient[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	eff, any := q.pop()
	if !any {
		return false, nil
	}
	return true, c.clients[id].Integrate(eff)
}

func (c *logootCluster) PendingToServer(id opid.ClientID) int { return c.toServer[id].len() }
func (c *logootCluster) PendingToClient(id opid.ClientID) int { return c.toClient[id].len() }

func (c *logootCluster) Read(id opid.ClientID) []list.Elem { return c.clients[id].Read() }
func (c *logootCluster) ReadServer() []list.Elem           { return c.server.Read() }

func (c *logootCluster) Document(replica string) ([]list.Elem, error) {
	if replica == opid.ServerName {
		return c.server.Document(), nil
	}
	for _, id := range c.ids {
		if id.String() == replica {
			return c.clients[id].Document(), nil
		}
	}
	return nil, fmt.Errorf("sim: unknown replica %q", replica)
}

func (c *logootCluster) Stats() []SpaceStat {
	const logootNodeBytes = 72 // entry + identifier digits, rough model
	out := make([]SpaceStat, 0, len(c.ids)+1)
	out = append(out, SpaceStat{Replica: opid.ServerName, Name: "logoot", States: c.server.Len(), Bytes: c.server.Len() * logootNodeBytes})
	for _, id := range c.ids {
		n := c.clients[id].Len()
		out = append(out, SpaceStat{Replica: id.String(), Name: "logoot", States: n, Bytes: n * logootNodeBytes})
	}
	return out
}

// ------------------------------------------------------------ TreeDoc ----

type treedocCluster struct {
	ids      []opid.ClientID
	server   *treedoc.Server
	clients  map[opid.ClientID]*treedoc.Replica
	toServer map[opid.ClientID]*fifo[treedoc.Effect]
	toClient map[opid.ClientID]*fifo[treedoc.Effect]
	hist     *core.History
}

func newTreedocCluster(ids []opid.ClientID, rec core.Recorder, hist *core.History) *treedocCluster {
	c := &treedocCluster{
		ids:      ids,
		server:   treedoc.NewServer(ids, rec),
		clients:  make(map[opid.ClientID]*treedoc.Replica, len(ids)),
		toServer: make(map[opid.ClientID]*fifo[treedoc.Effect], len(ids)),
		toClient: make(map[opid.ClientID]*fifo[treedoc.Effect], len(ids)),
		hist:     hist,
	}
	for _, id := range ids {
		c.clients[id] = treedoc.NewReplica(id.String(), id, rec)
		c.toServer[id] = &fifo[treedoc.Effect]{}
		c.toClient[id] = &fifo[treedoc.Effect]{}
	}
	return c
}

func (c *treedocCluster) Protocol() Protocol       { return TreeDoc }
func (c *treedocCluster) Clients() []opid.ClientID { return append([]opid.ClientID(nil), c.ids...) }
func (c *treedocCluster) History() *core.History   { return c.hist }

func (c *treedocCluster) GenerateIns(id opid.ClientID, val rune, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	eff, err := cl.GenerateIns(val, pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(eff)
	return nil
}

func (c *treedocCluster) GenerateDel(id opid.ClientID, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	eff, err := cl.GenerateDel(pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(eff)
	return nil
}

func (c *treedocCluster) DeliverToServer(id opid.ClientID) (bool, error) {
	q, ok := c.toServer[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	eff, any := q.pop()
	if !any {
		return false, nil
	}
	outs, err := c.server.Receive(id, eff)
	if err != nil {
		return true, err
	}
	for _, out := range outs {
		c.toClient[out.To].push(out.Effect)
	}
	return true, nil
}

func (c *treedocCluster) DeliverToClient(id opid.ClientID) (bool, error) {
	q, ok := c.toClient[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	eff, any := q.pop()
	if !any {
		return false, nil
	}
	return true, c.clients[id].Integrate(eff)
}

func (c *treedocCluster) PendingToServer(id opid.ClientID) int { return c.toServer[id].len() }
func (c *treedocCluster) PendingToClient(id opid.ClientID) int { return c.toClient[id].len() }

func (c *treedocCluster) Read(id opid.ClientID) []list.Elem { return c.clients[id].Read() }
func (c *treedocCluster) ReadServer() []list.Elem           { return c.server.Read() }

func (c *treedocCluster) Document(replica string) ([]list.Elem, error) {
	if replica == opid.ServerName {
		return c.server.Document(), nil
	}
	for _, id := range c.ids {
		if id.String() == replica {
			return c.clients[id].Document(), nil
		}
	}
	return nil, fmt.Errorf("sim: unknown replica %q", replica)
}

func (c *treedocCluster) Stats() []SpaceStat {
	const treedocNodeBytes = 64
	out := make([]SpaceStat, 0, len(c.ids)+1)
	out = append(out, SpaceStat{Replica: opid.ServerName, Name: "treedoc", States: c.server.TotalNodes(), Bytes: c.server.TotalNodes() * treedocNodeBytes})
	for _, id := range c.ids {
		n := c.clients[id].TotalNodes()
		out = append(out, SpaceStat{Replica: id.String(), Name: "treedoc", States: n, Bytes: n * treedocNodeBytes})
	}
	return out
}

// --------------------------------------------------------------- WOOT ----

type wootCluster struct {
	ids      []opid.ClientID
	server   *woot.Server
	clients  map[opid.ClientID]*woot.Replica
	toServer map[opid.ClientID]*fifo[woot.Effect]
	toClient map[opid.ClientID]*fifo[woot.Effect]
	hist     *core.History
}

func newWootCluster(ids []opid.ClientID, rec core.Recorder, hist *core.History) *wootCluster {
	c := &wootCluster{
		ids:      ids,
		server:   woot.NewServer(ids, rec),
		clients:  make(map[opid.ClientID]*woot.Replica, len(ids)),
		toServer: make(map[opid.ClientID]*fifo[woot.Effect], len(ids)),
		toClient: make(map[opid.ClientID]*fifo[woot.Effect], len(ids)),
		hist:     hist,
	}
	for _, id := range ids {
		c.clients[id] = woot.NewReplica(id.String(), id, rec)
		c.toServer[id] = &fifo[woot.Effect]{}
		c.toClient[id] = &fifo[woot.Effect]{}
	}
	return c
}

func (c *wootCluster) Protocol() Protocol       { return WOOT }
func (c *wootCluster) Clients() []opid.ClientID { return append([]opid.ClientID(nil), c.ids...) }
func (c *wootCluster) History() *core.History   { return c.hist }

func (c *wootCluster) GenerateIns(id opid.ClientID, val rune, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	eff, err := cl.GenerateIns(val, pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(eff)
	return nil
}

func (c *wootCluster) GenerateDel(id opid.ClientID, pos int) error {
	cl, ok := c.clients[id]
	if !ok {
		return fmt.Errorf("sim: unknown client %s", id)
	}
	eff, err := cl.GenerateDel(pos)
	if err != nil {
		return err
	}
	c.toServer[id].push(eff)
	return nil
}

func (c *wootCluster) DeliverToServer(id opid.ClientID) (bool, error) {
	q, ok := c.toServer[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	eff, any := q.pop()
	if !any {
		return false, nil
	}
	outs, err := c.server.Receive(id, eff)
	if err != nil {
		return true, err
	}
	for _, out := range outs {
		c.toClient[out.To].push(out.Effect)
	}
	return true, nil
}

func (c *wootCluster) DeliverToClient(id opid.ClientID) (bool, error) {
	q, ok := c.toClient[id]
	if !ok {
		return false, fmt.Errorf("sim: unknown client %s", id)
	}
	eff, any := q.pop()
	if !any {
		return false, nil
	}
	return true, c.clients[id].Integrate(eff)
}

func (c *wootCluster) PendingToServer(id opid.ClientID) int { return c.toServer[id].len() }
func (c *wootCluster) PendingToClient(id opid.ClientID) int { return c.toClient[id].len() }

func (c *wootCluster) Read(id opid.ClientID) []list.Elem { return c.clients[id].Read() }
func (c *wootCluster) ReadServer() []list.Elem           { return c.server.Read() }

func (c *wootCluster) Document(replica string) ([]list.Elem, error) {
	if replica == opid.ServerName {
		return c.server.Document(), nil
	}
	for _, id := range c.ids {
		if id.String() == replica {
			return c.clients[id].Document(), nil
		}
	}
	return nil, fmt.Errorf("sim: unknown replica %q", replica)
}

func (c *wootCluster) Stats() []SpaceStat {
	const wootNodeBytes = 72
	out := make([]SpaceStat, 0, len(c.ids)+1)
	out = append(out, SpaceStat{Replica: opid.ServerName, Name: "woot", States: c.server.TotalNodes(), Bytes: c.server.TotalNodes() * wootNodeBytes})
	for _, id := range c.ids {
		n := c.clients[id].TotalNodes()
		out = append(out, SpaceStat{Replica: id.String(), Name: "woot", States: n, Bytes: n * wootNodeBytes})
	}
	return out
}
