package main

import (
	"jupiter/internal/css"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/wire"
)

// The replay pushes a round's seeded operations through the layers' public
// functions in the order the wire would carry them, on one goroutine and with
// no socket, with a span around every call. Its schedule is fixed, so its
// counts repeat exactly: each writer in turn generates until its window is
// full, then the server takes one frame from each writer in turn, flushing
// every `window` requests as the engine's apply loop does, then every replica
// receives what was flushed. What the TCP run pays on top of the replay's self
// time (sockets, goroutine hand-offs, locks, the garbage collector, frame
// acks) is reported as transport.residual_us_per_op.
type replay struct {
	w      workload
	seed   int64
	t      *tracer
	root   int // the root span calls are made under
	failed int
}

// replayServer is one document's side of the engine: the css.Server and the
// per-client frame numbering of server.docHost.
type replayServer struct {
	srv     *css.Server
	clients []*replayClient // in join order
}

// replayClient is one session: the replica, the frames it has sent that the
// server has not consumed, and the frames flushed to it that it has not
// received.
type replayClient struct {
	rp        *replay
	c         *css.Client
	srv       *replayServer
	outbox    [][]byte
	inbox     [][]byte
	unflushed []wire.Server
	frameSeq  uint64
	unacked   int
}

func newReplayServer() *replayServer {
	rs := &replayServer{srv: css.NewServer(nil, nil, nil)}
	rs.srv.UseCompactContexts() // as server.newDocHost does
	return rs
}

// must turns an error from a layer into a failed replay: the schedule is
// fixed and valid, so any error is a defect worth stopping for.
func must(err error) {
	if err != nil {
		panic(replayError{err})
	}
}

// replayError is what must panics with and runReplay recovers.
type replayError struct{ err error }

// join is client.Dial without the socket: snapshot, welcome frame both ways,
// replica rooted at the snapshot.
func (rp *replay) join(rs *replayServer) *replayClient {
	t := rp.t
	id := opid.ClientID(len(rs.clients) + 1)
	i := t.begin(spanSnapshot, rp.root, opid.OpID{})
	snap := rs.srv.Snapshot()
	t.end(i)
	must(rs.srv.AddClient(id))
	welcome := &wire.Frame{Type: wire.TWelcome, Welcome: &wire.Welcome{ClientID: int32(id), Snapshot: snap, Codec: wire.CodecBinary}}
	// The engine encodes a welcome twice: once in docHost.doJoinNew to count
	// snapshot bytes, once when the connection writes it.
	var body []byte
	for range 2 {
		var err error
		i = t.begin(spanEncodeWelcome, rp.root, opid.OpID{})
		body, err = wire.EncodeWith(wire.BinaryCodec, welcome)
		t.end(i)
		must(err)
	}
	i = t.begin(spanDecodeWelcome, rp.root, opid.OpID{})
	f, err := wire.Decode(body)
	t.end(i)
	must(err)
	t.spans[i].Bytes = len(body)
	i = t.begin(spanFromSnapshot, rp.root, opid.OpID{})
	c, err := css.NewClientFromSnapshot(id, f.Welcome.Snapshot, nil)
	t.end(i)
	must(err)
	c.UseCompactContexts() // the binary codec's contexts, as client.connect selects
	rc := &replayClient{rp: rp, c: c, srv: rs}
	rs.clients = append(rs.clients, rc)
	return rc
}

func (rc *replayClient) DocLen() int { return rc.c.DocLen() }

func (rc *replayClient) Insert(val rune, pos int) error {
	return rc.generate(func() (css.ClientMsg, error) { return rc.c.GenerateIns(val, pos) })
}

func (rc *replayClient) Delete(pos int) error {
	return rc.generate(func() (css.ClientMsg, error) { return rc.c.GenerateDel(pos) })
}

// generate is client.generate plus the pump: the driver's window is below the
// client's own, so every operation leaves at once as a frame of its own.
func (rc *replayClient) generate(gen func() (css.ClientMsg, error)) error {
	t, root := rc.rp.t, rc.rp.root
	i := t.begin(spanGenerate, root, opid.OpID{})
	msg, err := gen()
	t.end(i)
	if err != nil {
		return err
	}
	t.spans[i].Op = msg.Op.ID
	i = t.begin(spanEncodeOp, root, msg.Op.ID)
	body, err := wire.EncodeWith(wire.BinaryCodec, &wire.Frame{Type: wire.TOp, Op: &wire.Op{Msg: msg}})
	t.end(i)
	if err != nil {
		return err
	}
	rc.outbox = append(rc.outbox, body)
	rc.unacked++
	return nil
}

// consume is the server's read loop and apply loop for one op frame.
func (rs *replayServer) consume(rp *replay, body []byte) {
	t := rp.t
	i := t.begin(spanDecodeOp, rp.root, opid.OpID{})
	f, err := wire.Decode(body)
	t.end(i)
	must(err)
	t.spans[i].Bytes = len(body)
	t.spans[i].Op = f.Op.Msg.Op.ID
	i = t.begin(spanServerReceive, rp.root, f.Op.Msg.Op.ID)
	outs, err := rs.srv.Receive(f.Op.Msg)
	t.end(i)
	must(err)
	for _, out := range outs {
		rc := rs.clients[out.To-1]
		rc.frameSeq++
		rc.unflushed = append(rc.unflushed, wire.Server{Seq: rc.frameSeq, Msg: out.Msg})
	}
}

// flush is docHost.flush: each frame encoded on its own, then a batch frame
// composed from the encoded bodies.
func (rs *replayServer) flush(rp *replay) {
	t := rp.t
	for _, rc := range rs.clients {
		if len(rc.unflushed) == 0 {
			continue
		}
		bodies := make([][]byte, len(rc.unflushed))
		for k := range rc.unflushed {
			fr := &rc.unflushed[k]
			id := fr.Msg.Op.ID
			if fr.Msg.Kind == css.MsgAck {
				id = fr.Msg.AckID
			}
			var err error
			i := t.begin(spanEncodeSrv, rp.root, id)
			bodies[k], err = wire.EncodeWith(wire.BinaryCodec, &wire.Frame{Type: wire.TServer, Server: fr})
			t.end(i)
			must(err)
		}
		body := bodies[0]
		if len(bodies) > 1 {
			i := t.begin(spanEncodeSrv, rp.root, opid.OpID{})
			body = wire.AppendServerBatchRaw(nil, bodies)
			t.end(i)
		}
		rc.inbox = append(rc.inbox, body)
		rc.unflushed = rc.unflushed[:0]
	}
}

// drain is the client's reader: decode what was flushed, apply each frame.
func (rc *replayClient) drain() {
	t, root := rc.rp.t, rc.rp.root
	for _, body := range rc.inbox {
		i := t.begin(spanDecodeSrv, root, opid.OpID{})
		f, err := wire.Decode(body)
		t.end(i)
		must(err)
		t.spans[i].Bytes = len(body)
		var frames []wire.Server
		if f.Type == wire.TServerBatch {
			frames = f.ServerBatch.Frames
		} else {
			frames = []wire.Server{*f.Server}
		}
		for k := range frames {
			m := frames[k].Msg
			name, id := spanReceiveRemote, m.Op.ID
			if m.Kind == css.MsgAck {
				name, id = spanReceiveAck, m.AckID
				rc.unacked--
			}
			i = t.begin(name, root, id)
			err := rc.c.Receive(m)
			t.end(i)
			must(err)
		}
	}
	rc.inbox = rc.inbox[:0]
}

func (rc *replayClient) text() string { return list.Render(rc.c.Document()) }
func (rs *replayServer) text() string { return list.Render(rs.srv.Document()) }

// replayRound is what one replayed round leaves besides its spans.
type replayRound struct {
	states, edges int // state-space size, summed over the round's documents
}

// round replays one round. Spans of the part the TCP run times hang under a
// replay.measured root, everything else under replay.unmeasured.
func (rp *replay) round(round int) replayRound {
	w, t := rp.w, rp.t
	t.round = round
	var servers []*replayServer
	byDoc := map[string]*replayServer{}
	serverFor := func(doc string) *replayServer {
		rs, ok := byDoc[doc]
		if !ok {
			rs = newReplayServer()
			byDoc[doc] = rs
			servers = append(servers, rs)
		}
		return rs
	}
	openRoot := func(name string) { rp.root = t.begin(name, -1, opid.OpID{}) }

	type lane struct {
		stream *opStream
		cl     *replayClient
		doc    int // index of the lane's current (or next) document
		left   int // operations still to generate on it
	}
	var lanes [writers]lane
	for i := range lanes {
		lanes[i].stream = newOpStream(rp.seed, round, i)
	}
	dial := func(i int) {
		l := &lanes[i]
		l.cl = rp.join(serverFor(w.docName(round, i, l.doc)))
		l.left = w.opsPerDoc
	}

	writeRoot := spanMeasured
	if w.joins > 0 {
		writeRoot = spanUnmeasured
	}
	if !w.churn {
		openRoot(spanUnmeasured)
		for i := range lanes {
			dial(i)
		}
		if writeRoot != spanUnmeasured {
			t.end(rp.root)
			openRoot(writeRoot)
		}
	} else {
		openRoot(writeRoot)
	}

	for {
		busy := false
		for i := range lanes {
			l := &lanes[i]
			if l.cl == nil {
				if l.doc == w.docsPerWriter {
					continue
				}
				dial(i)
			}
			busy = true
			for ; l.left > 0 && l.cl.unacked < window; l.left-- {
				_, err := edit(l.cl, l.stream, w.shared)
				must(err)
			}
		}
		if !busy {
			break
		}
		for n, more := 0, true; more; {
			more = false
			for i := range lanes {
				cl := lanes[i].cl
				if cl == nil || len(cl.outbox) == 0 {
					continue
				}
				cl.srv.consume(rp, cl.outbox[0])
				cl.outbox = cl.outbox[1:]
				more = true
				if n++; n%window == 0 {
					for j := range lanes {
						if lanes[j].cl != nil {
							lanes[j].cl.srv.flush(rp)
						}
					}
				}
			}
		}
		for i := range lanes {
			if cl := lanes[i].cl; cl != nil {
				cl.srv.flush(rp)
			}
		}
		for i := range lanes {
			if cl := lanes[i].cl; cl != nil {
				cl.drain()
			}
		}
		for i := range lanes {
			l := &lanes[i]
			if l.cl != nil && l.left == 0 && l.cl.unacked == 0 {
				if l.cl.text() != l.cl.srv.text() {
					rp.failed++
				}
				l.cl = nil
				l.doc++
			}
		}
	}
	t.end(rp.root)

	if w.joins > 0 {
		openRoot(spanMeasured)
		rs := serverFor(w.docName(round, 0, 0))
		for j := 0; j < w.joins; j++ {
			if rp.join(rs).text() != rs.text() {
				rp.failed++
			}
		}
		t.end(rp.root)
	}

	var out replayRound
	for _, rs := range servers {
		out.states += rs.srv.Space().NumStates()
		out.edges += rs.srv.Space().NumEdges()
	}
	return out
}
