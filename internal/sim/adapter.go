package sim

import (
	"fmt"

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

// adapter is one protocol's server and clients behind the calls every
// runtime makes: the deterministic cluster, the goroutine runtime and the
// chaos runtime. Client i is opid.ClientID(i+1). Messages are opaque to the
// runtimes, which only queue and route them; an adapter is handed back only
// messages it produced itself. In the goroutine runtime each client replica
// is touched only by its own goroutine and the server by the server's, so
// an adapter needs no lock beyond the shared history recorder.
type adapter interface {
	genIns(i int, val rune, pos int) (any, error)
	genDel(i, pos int) (any, error)
	// serverRecv processes a message from client i at the server and
	// returns what the server sends in response.
	serverRecv(i int, msg any) ([]delivery, error)
	clientRecv(i int, msg any) error
	// read and readServer record a read; readServer returns nil when the
	// server keeps no document.
	read(i int) []list.Elem
	readServer() []list.Elem
	doc(i int) []list.Elem
	// serverDoc reports false when the server keeps no document.
	serverDoc() ([]list.Elem, bool)
	// stats prices the per-replica metadata, the server's first.
	stats() []SpaceStat
	// acks reports whether a client's own operations come back to it as
	// acknowledgements, not only the others' as broadcasts.
	acks() bool
}

// delivery is a server-to-client message with its destination index.
type delivery struct {
	to  int
	msg any
}

// route turns a server's addressed output into deliveries.
func route[A any](outs []A, err error, addr func(A) (opid.ClientID, any)) ([]delivery, error) {
	if err != nil {
		return nil, err
	}
	ds := make([]delivery, len(outs))
	for k, o := range outs {
		to, msg := addr(o)
		ds[k] = delivery{to: int(to) - 1, msg: msg}
	}
	return ds, nil
}

// clientIDs returns c1 … cn.
func clientIDs(n int) []opid.ClientID {
	ids := make([]opid.ClientID, n)
	for i := range ids {
		ids[i] = opid.ClientID(i + 1)
	}
	return ids
}

// newHistory returns the history a run records into and the recorder its
// replicas share, both nil when record is off. locked guards the recorder
// for replicas that run on several goroutines.
func newHistory(record bool, initial list.Doc, locked bool) (*core.History, core.Recorder) {
	if !record {
		return nil, nil
	}
	hist := &core.History{}
	if initial != nil {
		hist.Seed = initial.Elems()
	}
	if locked {
		return hist, &core.LockedRecorder{R: hist}
	}
	return hist, hist
}

// newAdapter builds protocol p's server and cfg.Clients clients.
func newAdapter(p Protocol, cfg Config, rec core.Recorder) (adapter, error) {
	ids := clientIDs(cfg.Clients)
	switch p {
	case CSS:
		a := &cssAdapter{server: css.NewServer(ids, cfg.Initial, rec, cfg.SpaceOptions...), rec: rec}
		if cfg.CompactContexts {
			a.server.UseCompactContexts()
		}
		for _, id := range ids {
			cl := css.NewClient(id, cfg.Initial, rec, cfg.SpaceOptions...)
			if cfg.CompactContexts {
				cl.UseCompactContexts()
			}
			a.clients = append(a.clients, cl)
		}
		return a, nil
	case CSCW:
		a := &cscwAdapter{server: cscw.NewServer(ids, cfg.Initial, rec)}
		for _, id := range ids {
			a.clients = append(a.clients, cscw.NewClient(id, cfg.Initial, rec))
		}
		return a, nil
	case RGA:
		a := &rgaAdapter{server: rga.NewServer(ids, rec)}
		for _, id := range ids {
			a.clients = append(a.clients, rga.NewReplica(id.String(), id, rec))
		}
		return a, nil
	case Logoot:
		a := &logootAdapter{server: logoot.NewServer(ids, rec)}
		for _, id := range ids {
			a.clients = append(a.clients, logoot.NewReplica(id.String(), id, rec))
		}
		return a, nil
	case TreeDoc:
		a := &treedocAdapter{server: treedoc.NewServer(ids, rec)}
		for _, id := range ids {
			a.clients = append(a.clients, treedoc.NewReplica(id.String(), id, rec))
		}
		return a, nil
	case WOOT:
		a := &wootAdapter{server: woot.NewServer(ids, rec)}
		for _, id := range ids {
			a.clients = append(a.clients, woot.NewReplica(id.String(), id, rec))
		}
		return a, nil
	case Broken:
		a := &brokenAdapter{server: broken.NewServer(ids)}
		for _, id := range ids {
			a.clients = append(a.clients, broken.NewClient(id, cfg.Initial, rec))
		}
		return a, nil
	default:
		return nil, fmt.Errorf("sim: unknown protocol %q", p)
	}
}

// nodeStats prices a CRDT's replicas at a fixed size per node: the server's
// nodes, then each client's.
func nodeStats(name string, nodeBytes, server, clients int, nodes func(i int) int) []SpaceStat {
	out := []SpaceStat{{Replica: opid.ServerName, Name: name, States: server, Bytes: server * nodeBytes}}
	for i := 0; i < clients; i++ {
		n := nodes(i)
		out = append(out, SpaceStat{Replica: opid.ClientID(i + 1).String(), Name: name, States: n, Bytes: n * nodeBytes})
	}
	return out
}

// ---------------------------------------------------------------- CSS ----

type cssAdapter struct {
	server  *css.Server
	clients []*css.Client
	rec     core.Recorder
}

func cssAddr(o css.Addressed) (opid.ClientID, any) { return o.To, o.Msg }

func (a *cssAdapter) genIns(i int, val rune, pos int) (any, error) {
	return a.clients[i].GenerateIns(val, pos)
}
func (a *cssAdapter) genDel(i, pos int) (any, error) { return a.clients[i].GenerateDel(pos) }
func (a *cssAdapter) serverRecv(_ int, msg any) ([]delivery, error) {
	outs, err := a.server.Receive(msg.(css.ClientMsg))
	return route(outs, err, cssAddr)
}
func (a *cssAdapter) clientRecv(i int, msg any) error {
	return a.clients[i].Receive(msg.(css.ServerMsg))
}
func (a *cssAdapter) read(i int) []list.Elem         { return a.clients[i].Read() }
func (a *cssAdapter) readServer() []list.Elem        { return a.server.Read() }
func (a *cssAdapter) doc(i int) []list.Elem          { return a.clients[i].Document() }
func (a *cssAdapter) serverDoc() ([]list.Elem, bool) { return a.server.Document(), true }
func (a *cssAdapter) acks() bool                     { return true }

func (a *cssAdapter) stats() []SpaceStat {
	out := make([]SpaceStat, 0, len(a.clients)+1)
	for k, sp := range a.spaces() {
		replica, name := opid.ServerName, "CSSs"
		if k > 0 {
			replica = opid.ClientID(k).String()
			name = "CSS" + replica
		}
		out = append(out, SpaceStat{Replica: replica, Name: name, States: sp.NumStates(), Edges: sp.NumEdges(), Bytes: sp.ByteSize()})
	}
	return out
}

// spaces returns the state-spaces, the server's first (SpacesOf).
func (a *cssAdapter) spaces() []*statespace.Space {
	out := []*statespace.Space{a.server.Space()}
	for _, c := range a.clients {
		out = append(out, c.Space())
	}
	return out
}

// advanceFrontier runs the garbage-collection extension (AdvanceFrontier).
func (a *cssAdapter) advanceFrontier() ([]delivery, error) {
	outs, err := a.server.AdvanceFrontier()
	return route(outs, err, cssAddr)
}

// saveClient / restoreClient implement chaosCrashable: a CSS client's crash
// snapshot is the real css.Client.Save JSON, round-tripped through
// css.RestoreClient on recovery (the full serialize/deserialize path, not a
// kept pointer).
func (a *cssAdapter) saveClient(i int) ([]byte, error) { return a.clients[i].Save() }

func (a *cssAdapter) restoreClient(i int, data []byte) error {
	c, err := css.RestoreClient(data, a.rec)
	if err != nil {
		return err
	}
	a.clients[i] = c
	return nil
}

// retireClient / joinClient implement chaosRejoinable: a lost-state crash
// removes the replica from the server's broadcast set for good, and
// recovery joins a FRESH client from a server snapshot
// (css.NewClientFromSnapshot), caught up to everything serialized so far.
func (a *cssAdapter) retireClient(i int) (string, error) {
	id := opid.ClientID(i + 1)
	return id.String(), a.server.RemoveClient(id)
}

func (a *cssAdapter) joinClient() (int, string, error) {
	id := opid.ClientID(len(a.clients) + 1)
	snap := a.server.Snapshot()
	if err := a.server.AddClient(id); err != nil {
		return 0, "", err
	}
	c, err := css.NewClientFromSnapshot(id, snap, a.rec)
	if err != nil {
		return 0, "", err
	}
	a.clients = append(a.clients, c)
	return len(a.clients) - 1, id.String(), nil
}

// --------------------------------------------------------------- CSCW ----

type cscwAdapter struct {
	server  *cscw.Server
	clients []*cscw.Client
}

func (a *cscwAdapter) genIns(i int, val rune, pos int) (any, error) {
	return a.clients[i].GenerateIns(val, pos)
}
func (a *cscwAdapter) genDel(i, pos int) (any, error) { return a.clients[i].GenerateDel(pos) }
func (a *cscwAdapter) serverRecv(_ int, msg any) ([]delivery, error) {
	outs, err := a.server.Receive(msg.(cscw.ClientMsg))
	return route(outs, err, func(o cscw.Addressed) (opid.ClientID, any) { return o.To, o.Msg })
}
func (a *cscwAdapter) clientRecv(i int, msg any) error {
	return a.clients[i].Receive(msg.(cscw.ServerMsg))
}
func (a *cscwAdapter) read(i int) []list.Elem         { return a.clients[i].Read() }
func (a *cscwAdapter) readServer() []list.Elem        { return a.server.Read() }
func (a *cscwAdapter) doc(i int) []list.Elem          { return a.clients[i].Document() }
func (a *cscwAdapter) serverDoc() ([]list.Elem, bool) { return a.server.Document(), true }
func (a *cscwAdapter) acks() bool                     { return true }

func (a *cscwAdapter) stats() []SpaceStat {
	// A 2D state-space is priced as Space.ByteSize prices the n-ary one's
	// states and edges: one flat record each.
	stat := func(replica string, d cscw.DSS) SpaceStat {
		bytes := d.States*statespace.StateBytes + d.Edges*statespace.EdgeBytes
		return SpaceStat{Replica: replica, Name: d.Name, States: d.States, Edges: d.Edges, Bytes: bytes}
	}
	out := make([]SpaceStat, 0, 2*len(a.clients))
	for _, d := range a.server.DSSs() {
		out = append(out, stat(opid.ServerName, d))
	}
	for i, c := range a.clients {
		out = append(out, stat(opid.ClientID(i+1).String(), c.DSS()))
	}
	return out
}

// saveClient / restoreClient implement chaosCrashable for CSCW, which has
// no persistence format: the replica object itself is retained across the
// crash (modeling perfect persistence of the full state), so the crash
// still loses in-flight traffic and volatile session buffers, and recovery
// still exercises session-level replay and dedup.
func (a *cscwAdapter) saveClient(int) ([]byte, error)  { return nil, nil }
func (a *cscwAdapter) restoreClient(int, []byte) error { return nil }

// ---------------------------------------------------------------- RGA ----

type rgaAdapter struct {
	server  *rga.Server
	clients []*rga.Replica
}

func (a *rgaAdapter) genIns(i int, val rune, pos int) (any, error) {
	return a.clients[i].GenerateIns(val, pos)
}
func (a *rgaAdapter) genDel(i, pos int) (any, error) { return a.clients[i].GenerateDel(pos) }
func (a *rgaAdapter) serverRecv(i int, msg any) ([]delivery, error) {
	outs, err := a.server.Receive(opid.ClientID(i+1), msg.(rga.Effect))
	return route(outs, err, func(o rga.Addressed) (opid.ClientID, any) { return o.To, o.Effect })
}
func (a *rgaAdapter) clientRecv(i int, msg any) error {
	return a.clients[i].Integrate(msg.(rga.Effect))
}
func (a *rgaAdapter) read(i int) []list.Elem         { return a.clients[i].Read() }
func (a *rgaAdapter) readServer() []list.Elem        { return a.server.Read() }
func (a *rgaAdapter) doc(i int) []list.Elem          { return a.clients[i].Document() }
func (a *rgaAdapter) serverDoc() ([]list.Elem, bool) { return a.server.Document(), true }
func (a *rgaAdapter) acks() bool                     { return false }
func (a *rgaAdapter) stats() []SpaceStat {
	return nodeStats("rga", 48, a.server.TotalNodes(), len(a.clients), func(i int) int { return a.clients[i].TotalNodes() })
}

// ------------------------------------------------------------- Logoot ----

type logootAdapter struct {
	server  *logoot.Server
	clients []*logoot.Replica
}

func (a *logootAdapter) genIns(i int, val rune, pos int) (any, error) {
	return a.clients[i].GenerateIns(val, pos)
}
func (a *logootAdapter) genDel(i, pos int) (any, error) { return a.clients[i].GenerateDel(pos) }
func (a *logootAdapter) serverRecv(i int, msg any) ([]delivery, error) {
	outs, err := a.server.Receive(opid.ClientID(i+1), msg.(logoot.Effect))
	return route(outs, err, func(o logoot.Addressed) (opid.ClientID, any) { return o.To, o.Effect })
}
func (a *logootAdapter) clientRecv(i int, msg any) error {
	return a.clients[i].Integrate(msg.(logoot.Effect))
}
func (a *logootAdapter) read(i int) []list.Elem         { return a.clients[i].Read() }
func (a *logootAdapter) readServer() []list.Elem        { return a.server.Read() }
func (a *logootAdapter) doc(i int) []list.Elem          { return a.clients[i].Document() }
func (a *logootAdapter) serverDoc() ([]list.Elem, bool) { return a.server.Document(), true }
func (a *logootAdapter) acks() bool                     { return false }
func (a *logootAdapter) stats() []SpaceStat {
	// An entry plus its identifier digits, a rough model.
	return nodeStats("logoot", 72, a.server.Len(), len(a.clients), func(i int) int { return a.clients[i].Len() })
}

// ------------------------------------------------------------ TreeDoc ----

type treedocAdapter struct {
	server  *treedoc.Server
	clients []*treedoc.Replica
}

func (a *treedocAdapter) genIns(i int, val rune, pos int) (any, error) {
	return a.clients[i].GenerateIns(val, pos)
}
func (a *treedocAdapter) genDel(i, pos int) (any, error) { return a.clients[i].GenerateDel(pos) }
func (a *treedocAdapter) serverRecv(i int, msg any) ([]delivery, error) {
	outs, err := a.server.Receive(opid.ClientID(i+1), msg.(treedoc.Effect))
	return route(outs, err, func(o treedoc.Addressed) (opid.ClientID, any) { return o.To, o.Effect })
}
func (a *treedocAdapter) clientRecv(i int, msg any) error {
	return a.clients[i].Integrate(msg.(treedoc.Effect))
}
func (a *treedocAdapter) read(i int) []list.Elem         { return a.clients[i].Read() }
func (a *treedocAdapter) readServer() []list.Elem        { return a.server.Read() }
func (a *treedocAdapter) doc(i int) []list.Elem          { return a.clients[i].Document() }
func (a *treedocAdapter) serverDoc() ([]list.Elem, bool) { return a.server.Document(), true }
func (a *treedocAdapter) acks() bool                     { return false }
func (a *treedocAdapter) stats() []SpaceStat {
	return nodeStats("treedoc", 64, a.server.TotalNodes(), len(a.clients), func(i int) int { return a.clients[i].TotalNodes() })
}

// --------------------------------------------------------------- WOOT ----

type wootAdapter struct {
	server  *woot.Server
	clients []*woot.Replica
}

func (a *wootAdapter) genIns(i int, val rune, pos int) (any, error) {
	return a.clients[i].GenerateIns(val, pos)
}
func (a *wootAdapter) genDel(i, pos int) (any, error) { return a.clients[i].GenerateDel(pos) }
func (a *wootAdapter) serverRecv(i int, msg any) ([]delivery, error) {
	outs, err := a.server.Receive(opid.ClientID(i+1), msg.(woot.Effect))
	return route(outs, err, func(o woot.Addressed) (opid.ClientID, any) { return o.To, o.Effect })
}
func (a *wootAdapter) clientRecv(i int, msg any) error {
	return a.clients[i].Integrate(msg.(woot.Effect))
}
func (a *wootAdapter) read(i int) []list.Elem         { return a.clients[i].Read() }
func (a *wootAdapter) readServer() []list.Elem        { return a.server.Read() }
func (a *wootAdapter) doc(i int) []list.Elem          { return a.clients[i].Document() }
func (a *wootAdapter) serverDoc() ([]list.Elem, bool) { return a.server.Document(), true }
func (a *wootAdapter) acks() bool                     { return false }
func (a *wootAdapter) stats() []SpaceStat {
	return nodeStats("woot", 72, a.server.TotalNodes(), len(a.clients), func(i int) int { return a.clients[i].TotalNodes() })
}

// ------------------------------------------------------------- Broken ----

// brokenAdapter drives the order-less relay, whose server keeps no document
// and prices nothing.
type brokenAdapter struct {
	server  *broken.Server
	clients []*broken.Client
}

func (a *brokenAdapter) genIns(i int, val rune, pos int) (any, error) {
	return a.clients[i].GenerateIns(val, pos)
}
func (a *brokenAdapter) genDel(i, pos int) (any, error) { return a.clients[i].GenerateDel(pos) }
func (a *brokenAdapter) serverRecv(_ int, msg any) ([]delivery, error) {
	outs, err := a.server.Receive(msg.(broken.Msg))
	return route(outs, err, func(o broken.Addressed) (opid.ClientID, any) { return o.To, o.Msg })
}
func (a *brokenAdapter) clientRecv(i int, msg any) error {
	return a.clients[i].Receive(msg.(broken.Msg))
}
func (a *brokenAdapter) read(i int) []list.Elem         { return a.clients[i].Read() }
func (a *brokenAdapter) readServer() []list.Elem        { return nil }
func (a *brokenAdapter) doc(i int) []list.Elem          { return a.clients[i].Document() }
func (a *brokenAdapter) serverDoc() ([]list.Elem, bool) { return nil, false }
func (a *brokenAdapter) acks() bool                     { return false }
func (a *brokenAdapter) stats() []SpaceStat             { return nil }
