package server

import (
	"net"
	"slices"
	"sync"
	"time"

	"jupiter/internal/replog"
	"jupiter/internal/wire"
)

// Replication layer.
//
// A replicated jupiterd cluster is a fixed list of nodes in PRIORITY ORDER;
// the first node is the initial leader, the rest are followers. The leader
// runs the ordinary engine — accept loop, per-doc apply loops — but every
// serialized event (client join, serialized operation) is appended to a
// replog.Log and streamed to followers as repl_append frames over the same
// listener that serves clients (the first frame of a connection decides:
// hello = client, repl_hello = peer). Followers append to their own log,
// apply the entries through the same per-doc apply loops (so their css state,
// client sessions, and per-client frame-sequence bookkeeping are replicas of
// the leader's), and ack. Once a majority of the cluster holds an entry it is
// COMMITTED, and only then are its srv frames released to clients — a client
// never observes an operation that a leader crash can un-serialize.
//
// Failover needs no election: followers' logs are always prefixes of the
// leader's, so the next-priority live node promotes after (a) failing to
// reach every higher-priority node for several scan rounds, and (b) merging
// the longest surviving log by consulting a majority's worth of peers. Two
// quorums intersect, so every committed entry is in some consulted log; the
// merged log therefore contains all committed entries. The promoted leader
// refuses client hellos (not-leader) until its commit index reaches its
// promotion-time last index — by then it has released every frame the dead
// leader could have released, so client resume points are always inside its
// window.
//
// What fixed priorities give up: a partitioned (not dead) leader is never
// demoted, and a candidate that cannot see a live higher-priority node may
// promote while that node still serves a minority partition. Committed data
// is never lost either way (commit requires a majority), but clients of the
// minority side stall until the partition heals. Day one assumes fail-stop
// crashes; DESIGN.md spells out the trade.

// Peer identifies one node of a replicated cluster.
type Peer struct {
	ID   string // stable node name, e.g. "n0"
	Addr string // the node's protocol listen address
}

// replBatch bounds entries per repl_append frame.
const replBatch = 64

// scanMisses is how many consecutive full scans of the higher-priority nodes
// must fail before a follower turns candidate.
const scanMisses = 3

// peerSession is the leader's side of one follower connection: a sender
// goroutine streams log entries and commit advances; the accepting read loop
// consumes acks.
type peerSession struct {
	node     string
	c        *conn
	kick     chan struct{}
	fromIdx  uint64 // follower's last index at hello time
	helloCmt uint64 // commit index sent in the hello reply
}

type replicator struct {
	eng     *Engine
	self    string
	cluster []Peer // priority order; cluster[0] is the initial leader
	log     *replog.Log
	retry   time.Duration

	mu        sync.Mutex
	role      string // wire.RoleLeader / RoleFollower / RoleCandidate
	leaderID  string // known leader ("" while searching)
	serving   bool   // leader only: releases have reached serveGate
	serveGate uint64 // promotion-time last index
	released  uint64 // highest index whose release was submitted to its doc
	sessions  map[string]*peerSession
	cur       net.Conn // follower/candidate: the outbound peer conn, closed on stop
	stopped   bool

	stopCh chan struct{}
	wg     sync.WaitGroup

	// Commit ranges cross from the log's commit lock to the per-doc apply
	// loops through this unbounded queue: the commit callback must never
	// block (a doc loop may be inside log.Append holding the commit lock),
	// so a dedicated goroutine drains the queue and submits the release
	// closures.
	relMu   sync.Mutex
	relCond *sync.Cond
	relQ    [][2]uint64
}

func newReplicator(e *Engine) *replicator {
	r := &replicator{
		eng:      e,
		self:     e.cfg.NodeID,
		cluster:  e.cfg.Cluster,
		log:      replog.New(len(e.cfg.Cluster)/2 + 1),
		retry:    e.cfg.replRetry(),
		sessions: make(map[string]*peerSession),
		stopCh:   make(chan struct{}),
	}
	r.relCond = sync.NewCond(&r.relMu)
	if r.cluster[0].ID == r.self {
		r.role, r.leaderID, r.serving = wire.RoleLeader, r.self, true
	} else {
		r.role = wire.RoleFollower
	}
	r.log.OnCommit(r.onCommit)
	return r
}

func (r *replicator) start() {
	r.publishRole()
	r.wg.Add(1)
	go r.releaseLoop()
	if !r.isLeader() {
		r.wg.Add(1)
		go r.followerLoop()
	}
}

func (r *replicator) stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	close(r.stopCh)
	sess := make([]*peerSession, 0, len(r.sessions))
	for _, s := range r.sessions {
		sess = append(sess, s)
	}
	cur := r.cur
	r.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	for _, s := range sess {
		s.c.close()
	}
	r.relMu.Lock()
	r.relCond.Broadcast()
	r.relMu.Unlock()
	r.wg.Wait()
}

func (r *replicator) isStopped() bool {
	select {
	case <-r.stopCh:
		return true
	default:
		return false
	}
}

func (r *replicator) isLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == wire.RoleLeader
}

// allowClient reports whether this node accepts client hellos right now and,
// when it does not, the best leader address hint it has.
func (r *replicator) allowClient() (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role == wire.RoleLeader {
		return r.serving, ""
	}
	hint := ""
	if r.leaderID != "" {
		for _, p := range r.cluster {
			if p.ID == r.leaderID {
				hint = p.Addr
			}
		}
	}
	return false, hint
}

// publishRole exports the role as a gauge: 0 follower, 1 candidate, 2 leader.
func (r *replicator) publishRole() {
	r.mu.Lock()
	role := r.role
	r.mu.Unlock()
	var v int64
	switch role {
	case wire.RoleCandidate:
		v = 1
	case wire.RoleLeader:
		v = 2
	}
	r.eng.reg.Gauge("repl_role").Set(v)
}

func (r *replicator) updateIndexMetrics() {
	last, commit := r.log.LastIndex(), r.log.CommitIndex()
	r.eng.reg.Gauge("repl_last_index").Set(int64(last))
	r.eng.reg.Gauge("repl_lag").Set(int64(last - commit))
}

// ------------------------------------------------------------- appends ----

// appendEntry is the leader hook called from inside a doc's apply loop: the
// entry enters the log (index assignment IS the cross-document serialization
// order) and every follower session is prodded.
func (r *replicator) appendEntry(e replog.Entry) uint64 {
	idx := r.log.Append(e)
	r.updateIndexMetrics()
	r.kickAll()
	return idx
}

func (r *replicator) kickAll() {
	r.mu.Lock()
	sess := make([]*peerSession, 0, len(r.sessions))
	for _, s := range r.sessions {
		sess = append(sess, s)
	}
	r.mu.Unlock()
	for _, s := range sess {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

// ingest appends replicated entries to the local log and routes the new ones
// into their documents' apply loops, in log order.
func (r *replicator) ingest(entries []replog.Entry) error {
	prev := r.log.LastIndex()
	if err := r.log.AppendFrom(entries); err != nil {
		return err
	}
	now := r.log.LastIndex()
	for idx := prev + 1; idx <= now; idx++ {
		e, ok := r.log.Entry(idx)
		if !ok {
			continue
		}
		h, err := r.eng.host(e.Doc)
		if err != nil {
			return err
		}
		if !h.submit(func() { h.applyReplicated(e) }) {
			return ErrClosed
		}
	}
	r.updateIndexMetrics()
	return nil
}

// -------------------------------------------------------------- commits ----

// onCommit runs under the log's commit lock: record the advance and hand the
// range to the release goroutine. Nothing here may block or re-enter the log.
func (r *replicator) onCommit(from, to uint64) {
	r.eng.reg.Gauge("repl_commit_index").Set(int64(to))
	r.eng.reg.Gauge("repl_lag").Set(int64(r.log.LastIndex() - to))
	r.relMu.Lock()
	r.relQ = append(r.relQ, [2]uint64{from, to})
	r.relCond.Signal()
	r.relMu.Unlock()
	r.kickAll()
}

// releaseLoop drains committed ranges and submits each entry's release to its
// document's apply loop. Runs on every node: release order (= commit order)
// is what makes per-client frame sequences identical across the cluster.
func (r *replicator) releaseLoop() {
	defer r.wg.Done()
	for {
		r.relMu.Lock()
		for len(r.relQ) == 0 && !r.isStopped() {
			r.relCond.Wait()
		}
		if len(r.relQ) == 0 {
			r.relMu.Unlock()
			return
		}
		rg := r.relQ[0]
		r.relQ = r.relQ[1:]
		r.relMu.Unlock()
		for idx := rg[0] + 1; idx <= rg[1]; idx++ {
			e, ok := r.log.Entry(idx)
			if !ok {
				continue
			}
			h, err := r.eng.host(e.Doc)
			if err != nil {
				return
			}
			if !h.submit(func() { h.release(idx) }) {
				return
			}
		}
		r.noteReleased(rg[1])
	}
}

// noteReleased opens the serve gate once every release up to the gate has been
// SUBMITTED to its document's queue. Gating on release submission (not on the
// commit index) matters: a hello accepted afterwards is queued behind those
// releases on the same per-doc FIFO, so the session state a resume checks
// against is never behind the client's resume point.
func (r *replicator) noteReleased(idx uint64) {
	r.mu.Lock()
	if idx > r.released {
		r.released = idx
	}
	if r.role == wire.RoleLeader && !r.serving && r.released >= r.serveGate {
		r.serving = true
		r.eng.logf("repl: %s serving clients (released through %d, gate %d)", r.self, r.released, r.serveGate)
	}
	r.mu.Unlock()
}

// ------------------------------------------------------ leader sessions ----

// handlePeer owns a connection whose first frame was a repl_hello. On the
// leader it becomes a follower session; elsewhere the peer gets our role (and,
// if it is a candidate behind our log, our suffix) and the connection closes.
func (r *replicator) handlePeer(c *conn, hello wire.ReplHello) {
	if !slices.Contains(hello.Codecs, wire.CodecBinary) {
		c.reject(wire.CodeProtocol, helloWithoutTag)
		return
	}
	if r.isLeader() {
		r.runFollowerSession(c, hello)
		return
	}
	r.mu.Lock()
	role := r.role
	r.mu.Unlock()
	last, commit := r.log.LastIndex(), r.log.CommitIndex()
	c.enqueue(&wire.Frame{Type: wire.TReplHello, ReplHello: &wire.ReplHello{
		NodeID: r.self, Role: role, LastIndex: last, Commit: commit, Codec: wire.CodecBinary,
	}})
	if hello.Role == wire.RoleCandidate && hello.LastIndex < last {
		suffix := r.log.Entries(hello.LastIndex+1, 0)
		for start := 0; start < len(suffix); start += replBatch {
			end := min(start+replBatch, len(suffix))
			c.enqueue(&wire.Frame{Type: wire.TReplAppend, ReplAppend: &wire.ReplAppend{
				Entries: suffix[start:end], Commit: commit,
			}})
		}
	}
	// close() flushes the queued frames best-effort in the write loop.
	c.close()
}

func (r *replicator) runFollowerSession(c *conn, hello wire.ReplHello) {
	last, commit := r.log.LastIndex(), r.log.CommitIndex()
	if !c.enqueue(&wire.Frame{Type: wire.TReplHello, ReplHello: &wire.ReplHello{
		NodeID: r.self, Role: wire.RoleLeader, LastIndex: last, Commit: commit, Codec: wire.CodecBinary,
	}}) {
		c.close()
		return
	}
	s := &peerSession{node: hello.NodeID, c: c, kick: make(chan struct{}, 1), fromIdx: hello.LastIndex, helloCmt: commit}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		c.close()
		return
	}
	if old := r.sessions[s.node]; old != nil {
		old.c.close()
	}
	r.sessions[s.node] = s
	r.wg.Add(1)
	r.mu.Unlock()
	r.eng.logf("repl: follower %s attached at index %d", s.node, s.fromIdx)
	// The hello's last index is an implicit ack: the follower already holds
	// that prefix. Without it, a fully caught-up follower (nothing to stream,
	// nothing to ack) could never advance the leader's commit.
	r.log.Ack(s.node, s.fromIdx)
	go r.sessionSender(s)
	for {
		f, err := c.codec.Read()
		if err != nil {
			break
		}
		if f.Type != wire.TReplAck {
			break
		}
		r.log.Ack(s.node, f.ReplAck.Index)
		r.updateIndexMetrics()
	}
	c.close()
	r.mu.Lock()
	if r.sessions[s.node] == s {
		delete(r.sessions, s.node)
	}
	r.mu.Unlock()
	r.eng.logf("repl: follower %s detached", s.node)
}

// sessionSender streams the log to one follower: backlog first, then new
// appends as they land, commit advances between, and a commit frame as
// heartbeat when idle.
func (r *replicator) sessionSender(s *peerSession) {
	defer r.wg.Done()
	lastSent, lastCommit := s.fromIdx, s.helloCmt
	heartbeat := 4 * r.retry
	for {
		entries := r.log.Entries(lastSent+1, replBatch)
		commit := r.log.CommitIndex()
		if len(entries) > 0 {
			f := &wire.Frame{Type: wire.TReplAppend, ReplAppend: &wire.ReplAppend{Entries: entries, Commit: commit}}
			if !r.enqueueBlocking(s.c, f) {
				return
			}
			lastSent = entries[len(entries)-1].Index
			lastCommit = commit
			continue
		}
		if commit != lastCommit {
			if !r.enqueueBlocking(s.c, &wire.Frame{Type: wire.TReplCommit, ReplCommit: &wire.ReplCommit{Commit: commit}}) {
				return
			}
			lastCommit = commit
			continue
		}
		select {
		case <-s.kick:
		case <-time.After(heartbeat):
			if !r.enqueueBlocking(s.c, &wire.Frame{Type: wire.TReplCommit, ReplCommit: &wire.ReplCommit{Commit: commit}}) {
				return
			}
		case <-s.c.closedCh:
			return
		case <-r.stopCh:
			return
		}
	}
}

// enqueueBlocking is enqueue with patience: a follower draining its socket
// slowly stalls only its own session goroutine.
func (r *replicator) enqueueBlocking(c *conn, f *wire.Frame) bool {
	for {
		if c.enqueue(f) {
			return true
		}
		select {
		case <-c.closedCh:
			return false
		case <-r.stopCh:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// ------------------------------------------------------- follower side ----

func (r *replicator) higherPriority() []Peer {
	var out []Peer
	for _, p := range r.cluster {
		if p.ID == r.self {
			break
		}
		out = append(out, p)
	}
	return out
}

func (r *replicator) sleepOrStop(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-r.stopCh:
		return false
	}
}

// followerLoop is a follower's life: find the leader among the
// higher-priority nodes and consume its stream; after scanMisses fruitless
// scans, run a candidacy; on promotion, exit (sessions now come to us).
func (r *replicator) followerLoop() {
	defer r.wg.Done()
	misses := 0
	for !r.isStopped() {
		followed := false
		for _, p := range r.higherPriority() {
			if r.followOnce(p) {
				followed = true
				break
			}
		}
		if followed {
			misses = 0
			continue // the leader we had is gone; rescan from the top
		}
		misses++
		if misses >= scanMisses {
			misses = 0
			r.setRole(wire.RoleCandidate, "")
			if r.runCandidate() {
				return // promoted
			}
			r.setRole(wire.RoleFollower, "")
		}
		if !r.sleepOrStop(r.retry) {
			return
		}
	}
}

func (r *replicator) setRole(role, leaderID string) {
	r.mu.Lock()
	r.role = role
	r.leaderID = leaderID
	r.mu.Unlock()
	r.publishRole()
}

func (r *replicator) dialPeer(p Peer) (net.Conn, *wire.Stream, bool) {
	nc, err := net.DialTimeout("tcp", p.Addr, max(4*r.retry, time.Second))
	if err != nil {
		return nil, nil, false
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		nc.Close()
		return nil, nil, false
	}
	r.cur = nc
	r.mu.Unlock()
	return nc, wire.NewStream(nc, r.eng.cfg.MaxFrame), true
}

func (r *replicator) dropPeer(nc net.Conn) {
	r.mu.Lock()
	if r.cur == nc {
		r.cur = nil
	}
	r.mu.Unlock()
	nc.Close()
}

// followOnce dials one higher-priority node; if it is the leader, consumes
// its stream until the connection dies. Reports whether we actually followed.
func (r *replicator) followOnce(p Peer) bool {
	nc, codec, ok := r.dialPeer(p)
	if !ok {
		return false
	}
	defer r.dropPeer(nc)
	ioBudget := max(10*r.retry, 2*time.Second)
	_ = nc.SetDeadline(time.Now().Add(ioBudget))
	if err := codec.Write(&wire.Frame{Type: wire.TReplHello, ReplHello: &wire.ReplHello{
		NodeID: r.self, Role: wire.RoleFollower, LastIndex: r.log.LastIndex(), Commit: r.log.CommitIndex(),
		Codecs: []string{wire.CodecBinary},
	}}); err != nil {
		return false
	}
	f, err := codec.Read()
	if err != nil || f.Type != wire.TReplHello || f.ReplHello.Role != wire.RoleLeader {
		return false
	}
	r.setRole(wire.RoleFollower, f.ReplHello.NodeID)
	r.eng.logf("repl: %s following %s", r.self, p.ID)
	lastAcked := uint64(0)
	for {
		_ = nc.SetReadDeadline(time.Now().Add(ioBudget))
		f, err := codec.Read()
		if err != nil {
			break
		}
		switch f.Type {
		case wire.TReplAppend:
			if err := r.ingest(f.ReplAppend.Entries); err != nil {
				r.eng.logf("repl: %s: ingest from %s: %v", r.self, p.ID, err)
				r.setLeaderLost(p.ID)
				return true
			}
			r.log.SetCommit(f.ReplAppend.Commit)
			if li := r.log.LastIndex(); li != lastAcked {
				_ = nc.SetWriteDeadline(time.Now().Add(ioBudget))
				if err := codec.Write(&wire.Frame{Type: wire.TReplAck, ReplAck: &wire.ReplAck{Index: li}}); err != nil {
					r.setLeaderLost(p.ID)
					return true
				}
				lastAcked = li
			}
		case wire.TReplCommit:
			r.log.SetCommit(f.ReplCommit.Commit)
		default:
			r.setLeaderLost(p.ID)
			return true
		}
	}
	r.setLeaderLost(p.ID)
	return true
}

func (r *replicator) setLeaderLost(id string) {
	r.mu.Lock()
	if r.leaderID == id {
		r.leaderID = ""
	}
	r.mu.Unlock()
}

// ----------------------------------------------------------- candidacy ----

// consult polls one peer during candidacy: absorb its longer suffix, adopt
// its commit knowledge. ok means the peer was reachable and fully drained;
// sawLeader aborts the candidacy.
func (r *replicator) consult(p Peer) (ok, sawLeader bool) {
	nc, codec, dialed := r.dialPeer(p)
	if !dialed {
		return false, false
	}
	defer r.dropPeer(nc)
	ioBudget := max(10*r.retry, 2*time.Second)
	_ = nc.SetDeadline(time.Now().Add(ioBudget))
	if err := codec.Write(&wire.Frame{Type: wire.TReplHello, ReplHello: &wire.ReplHello{
		NodeID: r.self, Role: wire.RoleCandidate, LastIndex: r.log.LastIndex(), Commit: r.log.CommitIndex(),
		Codecs: []string{wire.CodecBinary},
	}}); err != nil {
		return false, false
	}
	f, err := codec.Read()
	if err != nil || f.Type != wire.TReplHello {
		return false, false
	}
	if f.ReplHello.Role == wire.RoleLeader {
		return false, true
	}
	target := f.ReplHello.LastIndex
	peerCommit := f.ReplHello.Commit
	for r.log.LastIndex() < target {
		_ = nc.SetReadDeadline(time.Now().Add(ioBudget))
		g, err := codec.Read()
		if err != nil {
			return false, false // stream torn before catch-up completed
		}
		switch g.Type {
		case wire.TReplAppend:
			if err := r.ingest(g.ReplAppend.Entries); err != nil {
				return false, false
			}
			r.log.SetCommit(g.ReplAppend.Commit)
		case wire.TReplCommit:
			r.log.SetCommit(g.ReplCommit.Commit)
		default:
			return false, false
		}
	}
	r.log.SetCommit(peerCommit)
	return true, false
}

// runCandidate consults every other node. Promotion requires (a) every
// higher-priority node unreachable — a live one outranks us — and (b) a
// majority's worth of logs merged (self plus quorum-1 peers), which by quorum
// intersection covers every committed entry.
func (r *replicator) runCandidate() bool {
	need := r.log.Quorum() - 1
	got := 0
	for _, p := range r.cluster {
		if p.ID == r.self {
			continue
		}
		higher := false
		for _, hp := range r.higherPriority() {
			if hp.ID == p.ID {
				higher = true
			}
		}
		ok, sawLeader := r.consult(p)
		if sawLeader {
			return false
		}
		if ok && higher {
			// A live higher-priority node will promote; defer to it.
			return false
		}
		if ok {
			got++
		}
		if r.isStopped() {
			return false
		}
	}
	if got < need {
		r.eng.logf("repl: %s candidacy stalled (%d/%d peers merged)", r.self, got, need)
		return false
	}
	r.promote()
	return true
}

func (r *replicator) promote() {
	last, commit := r.log.LastIndex(), r.log.CommitIndex()
	r.mu.Lock()
	r.role = wire.RoleLeader
	r.leaderID = r.self
	r.serveGate = last
	r.serving = r.released >= last
	serving := r.serving
	r.mu.Unlock()
	r.publishRole()
	r.eng.reg.Counter("failovers_total").Inc()
	r.eng.logf("repl: %s promoted to leader (last %d, commit %d, serving %v)", r.self, last, commit, serving)
}
