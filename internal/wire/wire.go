// Package wire is the framing layer of the network runtime: a
// length-prefixed frame stream over any io.ReadWriter, and the one place
// that decides what a stream writes.
//
// Every frame is a 4-byte big-endian length followed by exactly that many
// body bytes. A Stream writes the compact binary body (binary.go) from the
// first frame on every link — client sessions, replication, placement and
// migration alike. The body starts with a magic byte no JSON document can
// (0xBF), so Decode also still accepts the JSON rendering of a frame: a
// tagged union of a "type" discriminator plus the one payload field matching
// it, reusing the css/core JSON encodings. Nothing on a live link writes
// JSON; it is the form hand-written debugging frames, the adversarial
// validate() tables and the fuzz seeds arrive in. Hello.Codecs/Welcome.Codec
// carry the protocol's version tag (CodecBinary); a peer without it is
// refused.
//
//	Frame        Direction         Payload
//	hello        client → server   document name, client id (0 = new), resume point, version tag
//	welcome      server → client   assigned client id, join snapshot or resume ack, version tag
//	op           client → server   css.ClientMsg (an original operation + context)
//	opb          client → server   batch of css.ClientMsg (coalesced buffered ops)
//	srv          server → client   css.ServerMsg (broadcast / ack / frontier) + frame seq
//	srvb         server → client   batch of srv frames, one flush of the doc apply loop
//	ack          client → server   highest server frame seq durably processed
//	err          server → client   terminal error, connection closes after
//	bye          either            graceful close
//
// Replication frames (jupiterd ↔ jupiterd, the internal/replog layer):
//
//	repl_hello   peer → peer       node id, role, last log index, commit index, version tag
//	repl_append  leader → follower a batch of log entries + the commit index
//	repl_ack     follower → leader highest contiguous log index held
//	repl_commit  leader → follower commit index advance with no new entries
//
// Placement frames (client ↔ jupiterplace, jupiterplace ↔ shard,
// shard ↔ shard — the internal/placement layer):
//
//	route        client → placement ask for the routing table (doc optional, version for conditional fetch)
//	routes       placement → client the full consistent-hash routing table
//	moved        shard → client     document now lives on another shard; reconnect there
//	migrate      placement → shard  freeze a document and hand it to the named target shard
//	mig_state    shard → shard      the frozen document state blob (snapshot + per-client resume outboxes)
//	mig_ack      shard → shard,     transfer outcome (installed or refused, with reason)
//	             shard → placement
//
// Hardening: the decoder rejects frames longer than the configured maximum
// BEFORE reading the body (a hostile length prefix cannot make the reader
// allocate), rejects empty and truncated frames, rejects unknown types,
// rejects type/payload mismatches, and surfaces JSON syntax errors. The
// binary decoder additionally bounds every element count by the bytes that
// remain, so a hostile count cannot force a large allocation. See
// wire_test.go, golden_test.go, and FuzzWireDecode.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"jupiter/internal/css"
	"jupiter/internal/ot"
	"jupiter/internal/replog"
)

// DefaultMaxFrame bounds a frame body when the caller does not choose a
// limit. Snapshots of long sessions are the largest frames; 8 MiB is ample
// for ~10^5 replayed operations.
const DefaultMaxFrame = 8 << 20

// Frame type discriminators.
const (
	THello       = "hello"
	TWelcome     = "welcome"
	TOp          = "op"
	TOpBatch     = "opb"
	TServer      = "srv"
	TServerBatch = "srvb"
	TAck         = "ack"
	TError       = "err"
	TBye         = "bye"

	TReplHello  = "repl_hello"
	TReplAppend = "repl_append"
	TReplAck    = "repl_ack"
	TReplCommit = "repl_commit"

	TRoute    = "route"
	TRoutes   = "routes"
	TMoved    = "moved"
	TMigrate  = "migrate"
	TMigState = "mig_state"
	TMigAck   = "mig_ack"
)

// Hello opens a session. ClientID 0 asks the server to mint a new client
// rooted at a join snapshot; a non-zero ClientID resumes an existing session,
// and LastFrameSeq names the last server frame the client fully processed —
// the server resends everything after it.
type Hello struct {
	Doc          string `json:"doc"`
	ClientID     int32  `json:"clientId,omitempty"`
	LastFrameSeq uint64 `json:"lastFrameSeq,omitempty"`
	// Codecs is the protocol's version tag: it must contain CodecBinary.
	// Absent means a protocol v1 client (JSON bodies, no batch frames), which
	// the server refuses with CodeProtocol.
	Codecs []string `json:"codecs,omitempty"`
	// Shard, when set, names the shard the client resolved for Doc from the
	// placement table. A shard whose own id differs rejects the hello with
	// CodeWrongShard instead of silently creating the document in the wrong
	// place — the stale-cache guard of the sharding layer. Absent means the
	// client is not placement-aware and the server accepts unconditionally.
	Shard string `json:"shard,omitempty"`
}

// Welcome answers a Hello. Snapshot is set for new clients (the css join
// snapshot the client roots its replica at); Resume is set when the server
// accepted a reconnect and will replay the missed outbox suffix.
type Welcome struct {
	ClientID int32         `json:"clientId"`
	Snapshot *css.Snapshot `json:"snapshot,omitempty"`
	Resume   bool          `json:"resume,omitempty"`
	// Codec echoes the protocol's version tag; always CodecBinary.
	Codec string `json:"codec,omitempty"`
}

// Op carries one client operation to the server.
type Op struct {
	Msg css.ClientMsg `json:"msg"`
}

// OpBatch carries several buffered client operations in one frame: the
// client's flush policy coalesces everything generated since the last flush.
// The server applies the batch through one pass of the doc apply loop.
type OpBatch struct {
	Msgs []css.ClientMsg `json:"msgs"`
}

// Server carries one server-to-client protocol message. Seq is the per-client
// FRAME sequence number (1, 2, 3, ... in order of emission to that client) —
// distinct from the protocol's global operation sequence inside Msg — and is
// what reconnect/resume and ack trimming are keyed on.
type Server struct {
	Seq uint64        `json:"seq"`
	Msg css.ServerMsg `json:"msg"`
}

// ServerBatch carries several srv frames in one wire frame — one flush of
// the per-doc apply loop, or one chunk of a resume replay. Frame seqs are
// strictly increasing within a batch, and the client answers with a single
// cumulative Ack for the last one (group ack).
type ServerBatch struct {
	Frames []Server `json:"frames"`
}

// Ack confirms that the client durably processed every server frame up to
// and including Seq, letting the server trim its retained outbox.
type Ack struct {
	Seq uint64 `json:"seq"`
}

// Error is a terminal server-side error; the connection closes after it.
// Leader, set on CodeNotLeader, hints where the cluster's serving leader is.
type Error struct {
	Code   string `json:"code"`
	Msg    string `json:"msg"`
	Leader string `json:"leader,omitempty"`
}

// Error codes.
const (
	CodeBadFrame    = "bad-frame"
	CodeUnknownDoc  = "unknown-doc"
	CodeBadResume   = "bad-resume"
	CodeSlowClient  = "slow-client"
	CodeShutdown    = "shutdown"
	CodeProtocol    = "protocol"
	CodeBackpressed = "backpressure"
	// CodeOpGap cuts a session whose operations skipped a sequence number:
	// the transport lost a frame, and a resume replays it. Every other
	// CodeProtocol refusal ends the client's session for good.
	CodeOpGap = "op-gap"
	// CodeNotLeader rejects a client hello on a node that is not the
	// cluster's serving leader; Error.Leader may carry the leader's address.
	CodeNotLeader = "not-leader"
	// CodeWrongShard rejects a hello whose Shard does not match the serving
	// shard's id: the client's placement cache is stale and must be refetched.
	CodeWrongShard = "wrong-shard"
)

// Replication roles carried in ReplHello.
const (
	RoleLeader = "leader"
	// RoleFollower opens (or offers) a leader→follower replication stream.
	RoleFollower = "follower"
	// RoleCandidate is a promoting follower fetching any longer surviving
	// log suffix before it assumes leadership.
	RoleCandidate = "candidate"
)

// ReplHello opens (or answers) a node-to-node replication session. A
// follower dials with its role, last held log index, and commit knowledge;
// the answering node replies with its own. Whoever holds more of the log
// streams the suffix to the other via ReplAppend.
type ReplHello struct {
	NodeID    string `json:"nodeId"`
	Role      string `json:"role"`
	LastIndex uint64 `json:"lastIndex,omitempty"`
	Commit    uint64 `json:"commit,omitempty"`
	// Codecs (dialer) and Codec (answerer) carry the protocol's version tag,
	// CodecBinary, exactly as Hello.Codecs and Welcome.Codec do: a dialer
	// without it is a v1 peer and is refused.
	Codecs []string `json:"codecs,omitempty"`
	Codec  string   `json:"codec,omitempty"`
}

// ReplAppend carries a batch of contiguous log entries plus the sender's
// commit index. An empty batch is invalid — commit-only advances use
// ReplCommit.
type ReplAppend struct {
	Entries []replog.Entry `json:"entries"`
	Commit  uint64         `json:"commit,omitempty"`
}

// ReplAck acknowledges that the follower durably holds every log entry up
// to and including Index.
type ReplAck struct {
	Index uint64 `json:"index"`
}

// ReplCommit announces a commit-index advance with no accompanying entries.
type ReplCommit struct {
	Commit uint64 `json:"commit"`
}

// Route asks the placement service for the routing table. Doc, when set,
// lets the service record which document the caller is resolving (per-shard
// doc counts); Version, when non-zero, is the table version the caller
// already holds — the service answers anyway (tables are small), the field
// exists so a future conditional fetch needs no frame change.
type Route struct {
	Doc     string `json:"doc,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// Shard describes one jupiterd shard process in the routing table: a
// stable id (hashed onto the ring) and the addresses clients dial for it
// (several for a replicated shard).
type Shard struct {
	ID    string   `json:"id"`
	Addrs []string `json:"addrs"`
}

// Override pins one document to a shard regardless of the hash ring — the
// table's record of completed migrations.
type Override struct {
	Doc   string `json:"doc"`
	Shard string `json:"shard"`
}

// Table is the consistent-hash routing table: version (bumped on every
// change, so clients can tell stale from fresh), the virtual-node count per
// shard, the shard list, and migration overrides. Lookup is overrides
// first, then the ring.
type Table struct {
	Version   uint64     `json:"version"`
	VNodes    int        `json:"vnodes"`
	Shards    []Shard    `json:"shards"`
	Overrides []Override `json:"overrides,omitempty"`
}

// Routes answers a Route with the full routing table.
type Routes struct {
	Table Table `json:"table"`
}

// Moved tells a client the document now lives on another shard: sent in
// place of a welcome when a hello reaches a shard that handed the document
// off, and pushed to attached clients at the moment a migration completes.
// The client reconnects to Addrs (falling back to a placement re-fetch when
// absent) and resumes there — the target holds its outbox.
type Moved struct {
	Doc   string   `json:"doc"`
	Shard string   `json:"shard"`
	Addrs []string `json:"addrs,omitempty"`
}

// Migrate orders a shard to freeze Doc and transfer it to TargetShard at
// TargetAddrs. Answered with a MigAck once the transfer succeeded or failed.
// Token is the shared placement-plane secret: a shard configured with one
// refuses Migrate frames that do not carry it, so reaching the client port
// is not enough to command a state transfer.
type Migrate struct {
	Doc         string   `json:"doc"`
	TargetShard string   `json:"targetShard"`
	TargetAddrs []string `json:"targetAddrs"`
	Token       string   `json:"token,omitempty"`
}

// MigState carries the frozen document state from source to target shard:
// the css server save plus every client session's resume outbox, in the
// same encoding the disk persistence layer uses, so the target restores
// sessions exactly as a restart would and resume works unchanged. Token is
// the same shared secret as on Migrate, checked by the target before it
// installs anything.
type MigState struct {
	Doc   string `json:"doc"`
	State []byte `json:"state"`
	Token string `json:"token,omitempty"`
}

// MigAck reports a transfer outcome: target → source after installing (or
// refusing) the state, and source → placement after the whole migration.
type MigAck struct {
	Doc string `json:"doc"`
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
}

// Frame is the tagged union carried on the wire. Exactly one payload field
// matching Type must be set (Bye has none).
type Frame struct {
	Type        string       `json:"type"`
	Hello       *Hello       `json:"hello,omitempty"`
	Welcome     *Welcome     `json:"welcome,omitempty"`
	Op          *Op          `json:"op,omitempty"`
	OpBatch     *OpBatch     `json:"opb,omitempty"`
	Server      *Server      `json:"srv,omitempty"`
	ServerBatch *ServerBatch `json:"srvb,omitempty"`
	Ack         *Ack         `json:"ack,omitempty"`
	Error       *Error       `json:"err,omitempty"`
	ReplHello   *ReplHello   `json:"replHello,omitempty"`
	ReplAppend  *ReplAppend  `json:"replAppend,omitempty"`
	ReplAck     *ReplAck     `json:"replAck,omitempty"`
	ReplCommit  *ReplCommit  `json:"replCommit,omitempty"`
	Route       *Route       `json:"route,omitempty"`
	Routes      *Routes      `json:"routes,omitempty"`
	Moved       *Moved       `json:"moved,omitempty"`
	Migrate     *Migrate     `json:"migrate,omitempty"`
	MigState    *MigState    `json:"migState,omitempty"`
	MigAck      *MigAck      `json:"migAck,omitempty"`
}

// Validation errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrEmptyFrame    = errors.New("wire: empty frame")
	ErrUnknownType   = errors.New("wire: unknown frame type")
	ErrBadPayload    = errors.New("wire: payload does not match frame type")
)

// WriteError marks a transport-level write failure, as opposed to an
// encode/validation failure. Transport failures heal on reconnect (the
// connection is dead, resend buffers replay); encode failures do not —
// the same frame fails identically on a healthy connection, so callers
// must not leave the frame queued for a retry that can never succeed.
type WriteError struct{ Err error }

func (e *WriteError) Error() string { return "wire: write: " + e.Err.Error() }
func (e *WriteError) Unwrap() error { return e.Err }

// validate checks the type/payload pairing.
func (f *Frame) validate() error {
	n := 0
	if f.Hello != nil {
		n++
	}
	if f.Welcome != nil {
		n++
	}
	if f.Op != nil {
		n++
	}
	if f.OpBatch != nil {
		n++
	}
	if f.Server != nil {
		n++
	}
	if f.ServerBatch != nil {
		n++
	}
	if f.Ack != nil {
		n++
	}
	if f.Error != nil {
		n++
	}
	if f.ReplHello != nil {
		n++
	}
	if f.ReplAppend != nil {
		n++
	}
	if f.ReplAck != nil {
		n++
	}
	if f.ReplCommit != nil {
		n++
	}
	if f.Route != nil {
		n++
	}
	if f.Routes != nil {
		n++
	}
	if f.Moved != nil {
		n++
	}
	if f.Migrate != nil {
		n++
	}
	if f.MigState != nil {
		n++
	}
	if f.MigAck != nil {
		n++
	}
	want := 1
	var payload bool
	switch f.Type {
	case THello:
		payload = f.Hello != nil
	case TWelcome:
		payload = f.Welcome != nil
	case TOp:
		payload = f.Op != nil
	case TOpBatch:
		payload = f.OpBatch != nil
	case TServer:
		payload = f.Server != nil
	case TServerBatch:
		payload = f.ServerBatch != nil
	case TAck:
		payload = f.Ack != nil
	case TError:
		payload = f.Error != nil
	case TReplHello:
		payload = f.ReplHello != nil
	case TReplAppend:
		payload = f.ReplAppend != nil
	case TReplAck:
		payload = f.ReplAck != nil
	case TReplCommit:
		payload = f.ReplCommit != nil
	case TRoute:
		payload = f.Route != nil
	case TRoutes:
		payload = f.Routes != nil
	case TMoved:
		payload = f.Moved != nil
	case TMigrate:
		payload = f.Migrate != nil
	case TMigState:
		payload = f.MigState != nil
	case TMigAck:
		payload = f.MigAck != nil
	case TBye:
		payload, want = true, 0
	default:
		return fmt.Errorf("%w: %q", ErrUnknownType, f.Type)
	}
	if !payload || n != want {
		return fmt.Errorf("%w: type %q with %d payload(s)", ErrBadPayload, f.Type, n)
	}
	return f.validatePayload()
}

// validatePayload checks payload semantics that the nested css decoders
// cannot (json.Unmarshal matches keys case-insensitively and leaves absent
// sub-objects at their zero value, which must not pass as a real message).
func (f *Frame) validatePayload() error {
	switch f.Type {
	case THello:
		if f.Hello.Doc == "" {
			return fmt.Errorf("%w: hello without document name", ErrBadPayload)
		}
	case TOp:
		if err := validateClientMsg(&f.Op.Msg); err != nil {
			return err
		}
	case TOpBatch:
		b := f.OpBatch
		if len(b.Msgs) == 0 {
			return fmt.Errorf("%w: op batch without messages", ErrBadPayload)
		}
		for i := range b.Msgs {
			if err := validateClientMsg(&b.Msgs[i]); err != nil {
				return fmt.Errorf("%w: batch msg %d: %v", ErrBadPayload, i, err)
			}
		}
	case TServer:
		if err := validateServerMsg(&f.Server.Msg); err != nil {
			return err
		}
	case TServerBatch:
		b := f.ServerBatch
		if len(b.Frames) == 0 {
			return fmt.Errorf("%w: srv batch without frames", ErrBadPayload)
		}
		for i := range b.Frames {
			if err := validateServerMsg(&b.Frames[i].Msg); err != nil {
				return fmt.Errorf("%w: batch frame %d: %v", ErrBadPayload, i, err)
			}
			if i > 0 && b.Frames[i].Seq <= b.Frames[i-1].Seq {
				return fmt.Errorf("%w: batch frame seqs not increasing at %d (%d after %d)",
					ErrBadPayload, i, b.Frames[i].Seq, b.Frames[i-1].Seq)
			}
		}
	case TReplHello:
		h := f.ReplHello
		if h.NodeID == "" {
			return fmt.Errorf("%w: repl hello without node id", ErrBadPayload)
		}
		switch h.Role {
		case RoleLeader, RoleFollower, RoleCandidate:
		default:
			return fmt.Errorf("%w: repl hello with unknown role %q", ErrBadPayload, h.Role)
		}
	case TReplAppend:
		a := f.ReplAppend
		if len(a.Entries) == 0 {
			return fmt.Errorf("%w: repl append without entries", ErrBadPayload)
		}
		for i := range a.Entries {
			e := &a.Entries[i]
			if err := e.Validate(); err != nil {
				return fmt.Errorf("%w: entry %d: %v", ErrBadPayload, i, err)
			}
			if e.Kind == replog.KindOp {
				if e.Msg.Op.Kind != ot.KindIns && e.Msg.Op.Kind != ot.KindDel {
					return fmt.Errorf("%w: entry %d carrying non-update kind %d", ErrBadPayload, i, e.Msg.Op.Kind)
				}
				if e.Msg.Ctx == nil && e.Msg.Compact == nil {
					return fmt.Errorf("%w: entry %d without context", ErrBadPayload, i)
				}
			}
			if i > 0 && e.Index != a.Entries[i-1].Index+1 {
				return fmt.Errorf("%w: entries not contiguous at %d (%d after %d)",
					ErrBadPayload, i, e.Index, a.Entries[i-1].Index)
			}
		}
	case TReplAck:
		if f.ReplAck.Index == 0 {
			return fmt.Errorf("%w: repl ack of index 0", ErrBadPayload)
		}
	case TRoutes:
		if err := ValidateTable(&f.Routes.Table); err != nil {
			return err
		}
	case TMoved:
		m := f.Moved
		if m.Doc == "" {
			return fmt.Errorf("%w: moved without document name", ErrBadPayload)
		}
		if m.Shard == "" {
			return fmt.Errorf("%w: moved without shard id", ErrBadPayload)
		}
	case TMigrate:
		m := f.Migrate
		if m.Doc == "" {
			return fmt.Errorf("%w: migrate without document name", ErrBadPayload)
		}
		if m.TargetShard == "" {
			return fmt.Errorf("%w: migrate without target shard", ErrBadPayload)
		}
		if len(m.TargetAddrs) == 0 {
			return fmt.Errorf("%w: migrate without target addresses", ErrBadPayload)
		}
	case TMigState:
		m := f.MigState
		if m.Doc == "" {
			return fmt.Errorf("%w: mig state without document name", ErrBadPayload)
		}
		if len(m.State) == 0 {
			return fmt.Errorf("%w: mig state without state blob", ErrBadPayload)
		}
	case TMigAck:
		if f.MigAck.Doc == "" {
			return fmt.Errorf("%w: mig ack without document name", ErrBadPayload)
		}
	}
	return nil
}

// ValidateTable checks routing-table well-formedness: at least one shard,
// unique non-empty shard ids each with at least one address, positive
// virtual-node count, and overrides that name listed shards. Exported for
// the placement service, which validates configured tables with the same
// rules the decoder enforces on received ones.
func ValidateTable(t *Table) error {
	if len(t.Shards) == 0 {
		return fmt.Errorf("%w: routing table without shards", ErrBadPayload)
	}
	if t.VNodes <= 0 {
		return fmt.Errorf("%w: routing table with %d virtual nodes", ErrBadPayload, t.VNodes)
	}
	ids := make(map[string]bool, len(t.Shards))
	for i := range t.Shards {
		s := &t.Shards[i]
		if s.ID == "" {
			return fmt.Errorf("%w: shard %d without id", ErrBadPayload, i)
		}
		if ids[s.ID] {
			return fmt.Errorf("%w: duplicate shard id %q", ErrBadPayload, s.ID)
		}
		ids[s.ID] = true
		if len(s.Addrs) == 0 {
			return fmt.Errorf("%w: shard %q without addresses", ErrBadPayload, s.ID)
		}
	}
	for i := range t.Overrides {
		o := &t.Overrides[i]
		if o.Doc == "" {
			return fmt.Errorf("%w: override %d without document name", ErrBadPayload, i)
		}
		if !ids[o.Shard] {
			return fmt.Errorf("%w: override for %q names unknown shard %q", ErrBadPayload, o.Doc, o.Shard)
		}
	}
	return nil
}

// validateClientMsg checks one client operation message (op frames and op
// batch elements).
func validateClientMsg(m *css.ClientMsg) error {
	if m.Op.Kind != ot.KindIns && m.Op.Kind != ot.KindDel {
		return fmt.Errorf("%w: op frame carrying non-update kind %d", ErrBadPayload, m.Op.Kind)
	}
	if m.Ctx == nil && m.Compact == nil {
		return fmt.Errorf("%w: op frame without context", ErrBadPayload)
	}
	return nil
}

// validateServerMsg checks one server message (srv frames and srv batch
// elements).
func validateServerMsg(m *css.ServerMsg) error {
	switch m.Kind {
	case css.MsgBroadcast:
		if m.Op.Kind != ot.KindIns && m.Op.Kind != ot.KindDel {
			return fmt.Errorf("%w: broadcast carrying non-update kind %d", ErrBadPayload, m.Op.Kind)
		}
		if m.Ctx == nil && m.Compact == nil {
			return fmt.Errorf("%w: broadcast without context", ErrBadPayload)
		}
	case css.MsgAck:
		if m.AckID.Zero() {
			return fmt.Errorf("%w: ack without operation id", ErrBadPayload)
		}
	case css.MsgFrontier:
		if m.Ctx == nil {
			return fmt.Errorf("%w: frontier without context", ErrBadPayload)
		}
	default:
		return fmt.Errorf("%w: server msg with unknown kind %d", ErrBadPayload, m.Kind)
	}
	return nil
}

// Encode renders the frame body as JSON (without the length prefix) — the
// readable form, for debugging and tests. Streams never write it.
func Encode(f *Frame) ([]byte, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(f)
}

// Decode parses and validates one frame body (without the length prefix).
// The encoding is detected from the first byte — 0xBF is the binary magic,
// no valid JSON document starts with it.
func Decode(data []byte) (*Frame, error) {
	if len(data) == 0 {
		return nil, ErrEmptyFrame
	}
	if data[0] == binMagic {
		return decodeBinary(data)
	}
	var f Frame
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// bufPool recycles body buffers across frame reads and writes. Buffers that
// grew beyond 64 KiB (snapshots, resume replays) are dropped back to the
// allocator rather than pinned in the pool.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const bufPoolMax = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > bufPoolMax {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Stream reads and writes length-prefixed frames on an io.ReadWriter.
// Reads and writes are independently safe to use from one reader and one
// writer goroutine; two concurrent writers must synchronize externally.
// Body buffers are pooled: neither Read nor Write allocates per frame
// beyond what the encoding itself needs.
type Stream struct {
	rw       io.ReadWriter
	maxFrame int
	lenBuf   [4]byte
}

// NewStream wraps rw. maxFrame <= 0 selects DefaultMaxFrame.
func NewStream(rw io.ReadWriter, maxFrame int) *Stream {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Stream{rw: rw, maxFrame: maxFrame}
}

// Write encodes one frame in the binary encoding and sends it.
func (s *Stream) Write(f *Frame) error {
	bp := getBuf()
	defer putBuf(bp)
	buf := append(*bp, 0, 0, 0, 0) // length prefix placeholder
	buf, err := binaryCodec{}.AppendFrame(buf, f)
	if err != nil {
		return err
	}
	*bp = buf[:0]
	return s.writePrefixed(buf)
}

// WriteRaw sends one pre-encoded frame body. This is the zero-re-encode
// path for cached outbox bodies and composed batch frames.
func (s *Stream) WriteRaw(body []byte) error {
	if len(body) == 0 {
		return ErrEmptyFrame
	}
	bp := getBuf()
	defer putBuf(bp)
	buf := append(*bp, 0, 0, 0, 0)
	buf = append(buf, body...)
	*bp = buf[:0]
	return s.writePrefixed(buf)
}

// writePrefixed fills the 4-byte placeholder at the head of buf and writes
// prefix+body in one call, preserving frame-boundary writes for the chaos
// proxy's mid-frame cut tests.
func (s *Stream) writePrefixed(buf []byte) error {
	body := len(buf) - 4
	if body > s.maxFrame {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, body, s.maxFrame)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	if _, err := s.rw.Write(buf); err != nil {
		return &WriteError{Err: err}
	}
	return nil
}

// Read receives and decodes one frame (Decode). A hostile or
// corrupt length prefix is rejected before any body byte is read, so the
// reader never allocates more than the configured maximum.
func (s *Stream) Read() (*Frame, error) {
	if _, err := io.ReadFull(s.rw, s.lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read length: %w", err)
	}
	n := binary.BigEndian.Uint32(s.lenBuf[:])
	if n == 0 {
		return nil, ErrEmptyFrame
	}
	if int64(n) > int64(s.maxFrame) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, s.maxFrame)
	}
	bp := getBuf()
	defer putBuf(bp)
	if cap(*bp) < int(n) {
		*bp = make([]byte, 0, n)
	}
	body := (*bp)[:n]
	if _, err := io.ReadFull(s.rw, body); err != nil {
		return nil, fmt.Errorf("wire: read body (%d bytes): %w", n, err)
	}
	f, err := Decode(body) // decoders copy; body returns to the pool
	*bp = body[:0]
	return f, err
}
