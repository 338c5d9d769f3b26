package main

import (
	"fmt"
	"math/rand"
)

const (
	// window is how many of its own operations a writer keeps un-acknowledged:
	// an editor that waits for the server, not a flood. client.Insert never
	// blocks, so without this bound the measured "latency" is the whole run.
	window = 32
	// writers is the number of client connections that write at once. The
	// host has two cores and the engine shares them, so two is also the most
	// connections the benchmark ever holds open.
	writers = 2
	// raceMargin keeps inserts on a document with a second writer away from
	// the tail of the list. Between Client.DocLen and Client.InsertID the
	// client may apply remote deletes, and an insert past the end fails only
	// after css.Client.GenerateIns has consumed a sequence number and added a
	// transition to the state-space, which wedges the session (the server
	// sees a gap in the client's sequence). A delete past the end fails
	// cleanly and is retried; an insert must never be out of range.
	raceMargin = 2 * window
)

// workload is one fixed amount of work. Sizes are capped by the heap the
// engine needs, which grows with the square of a document's history: per-op
// cost is O(history) even with one writer (css.orderLog.expand and
// statespace.State.Ops rebuild the whole context set), so a fixed-time run
// would do a different amount of work whenever speed wobbles.
type workload struct {
	name string
	why  string
	// rounds is the number of measured rounds; every timing metric is the
	// median over them. One more, unmeasured, round runs first.
	rounds int
	// roundsPerEngine consecutive rounds share one engine, which keeps every
	// document it was ever asked for; then a new engine starts. The heap an
	// engine may grow to caps this, so more rounds mean more engines.
	roundsPerEngine int
	// docsPerWriter documents are edited by each writer, one after another,
	// each through a session of its own (dial, write, Sync, Close).
	docsPerWriter int
	// opsPerDoc operations are written by each writer to each document.
	opsPerDoc int
	// shared makes both writers edit the same document.
	shared bool
	// churn puts dial and close inside the measured phase: the workload is
	// about sessions that come and go. Otherwise writers dial before it.
	churn bool
	// joins, when non-zero, makes the writes an unmeasured preload and
	// measures this many late joins, one after another. One op is one join.
	joins int
}

var workloads = []workload{
	{
		name:   "short-docs",
		why:    "an engine takes 2000 fresh 100-op documents: shortest histories and constant session churn, so the fixed per-op path (client pump, wire, server apply/flush, sockets) has its largest share",
		rounds: 120, roundsPerEngine: 40, docsPerWriter: 25, opsPerDoc: 100, churn: true,
	},
	{
		name:   "long-doc",
		why:    "each connection is the only writer of a 2000-op document: no concurrency, ladder depth 0, so what is left is the cost of history itself (context expansion, State.Ops)",
		rounds: 24, roundsPerEngine: 1, docsPerWriter: 1, opsPerDoc: 2000,
	},
	{
		name:   "shared-doc",
		why:    "two connections write 1000 ops each to one document: same history as long-doc but every op meets up to 32 concurrent ones, so the difference is remote integration plus the Algorithm-1 ladder",
		rounds: 18, roundsPerEngine: 1, docsPerWriter: 1, opsPerDoc: 1000, shared: true,
	},
	{
		name:   "late-join",
		why:    "5 sequential joins to an 800-op document written by two writers: reads the state the others write (Snapshot, welcome encode/decode, NewClientFromSnapshot), so retained per-op state shows up as a loss",
		rounds: 18, roundsPerEngine: 1, docsPerWriter: 1, opsPerDoc: 400, shared: true, joins: 5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// writeOps is the number of list operations one round writes.
func (w workload) writeOps() int { return writers * w.docsPerWriter * w.opsPerDoc }

// roundOps is the number of measured operations in one round.
func (w workload) roundOps() int {
	if w.joins > 0 {
		return w.joins
	}
	return w.writeOps()
}

// docName names the d-th document of a writer in a round. Names never repeat
// within a run, so an engine that lives for the whole run sees fresh
// documents only.
func (w workload) docName(round, writer, d int) string {
	if w.shared {
		return fmt.Sprintf("r%d", round)
	}
	return fmt.Sprintf("r%d-w%d-d%d", round, writer, d)
}

// opStream is a writer's seeded sequence of edit decisions. The stream is a
// function of (seed, round, writer) alone; the position an edit lands on also
// depends on the replica's length when it is made.
type opStream struct {
	rng *rand.Rand
	n   int
}

func newOpStream(seed int64, round, writer int) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(round)*1_009 + int64(writer)))}
}

// next draws one edit: 30 % deletes, 70 % inserts, a position draw u to be
// reduced modulo the list length, and the value an insert writes.
func (s *opStream) next() (del bool, u uint32, val rune) {
	del = s.rng.Intn(10) < 3
	u = s.rng.Uint32()
	val = rune('a' + s.n%26)
	s.n++
	return del, u, val
}

// insertPos turns a draw into an insert position that stays valid whatever a
// second writer deletes in the meantime (see raceMargin).
func insertPos(u uint32, docLen int, shared bool) int {
	if shared {
		docLen -= raceMargin
		if docLen < 0 {
			return 0
		}
	}
	return int(u % uint32(docLen+1))
}

// editor is the part of client.Client (and of the replay's replica) an edit
// needs; tests substitute one that loses the delete race on purpose.
type editor interface {
	DocLen() int
	Insert(val rune, pos int) error
	Delete(pos int) error
}

// edit performs the stream's next operation on e and reports whether a
// delete had to be retried as an insert. DocLen-then-Delete is not atomic: on
// a shared document a remote delete can shrink the list in between, and the
// delete then fails cleanly with a position error. That is the workload's own
// race, not a failure of the system, so it is retried as an insert at 0
// (always valid) and counted in ops_retried.
func edit(e editor, s *opStream, shared bool) (retried bool, err error) {
	del, u, val := s.next()
	if del {
		if n := e.DocLen(); n > 0 {
			if e.Delete(int(u%uint32(n))) == nil {
				return false, nil
			}
			return true, e.Insert(val, 0)
		}
	}
	return false, e.Insert(val, insertPos(u, e.DocLen(), shared))
}
