package css

import (
	"fmt"

	"jupiter/internal/opid"
)

// Compact contexts and the serialisation log.
//
// The theory-faithful message format ships an operation's context as an
// explicit set of operation identifiers (Definition 4.6), which grows with
// history length. Production Jupiter ships two counters instead:
//
//	CompactCtx{Origin, Remote, OwnSeq}
//
// denotes the context of the operation client Origin generated as its
// OwnSeq-th, at a point where it had received Remote broadcasts from the
// server. Every replica learns the server's serialisation order — broadcasts
// and acknowledgements arrive in it — and keeps it as one log of operation
// identities (an entry's origin is its id.Client). Against that log the
// counters expand back into the exact identifier set:
//
//	expand(c) = the first c.Remote logged operations NOT from Origin
//	          ∪ Origin's own operations with sequence < c.OwnSeq
//
// FIFO channels make the expansion well-defined when a message is processed:
// everything serialised before the operation has already been received, so
// the receiver's log prefix is complete.
//
// A replica sends compact contexts after UseCompactContexts and explicit
// ones otherwise (sim.Config.CompactContexts selects per cluster; the network
// runtime always sends compact). Either form is accepted on receipt.
// Client and server alike expand into one scratch set each (replica.expand),
// except where the server hands the set on in explicit broadcasts.
// TestCompactContextsEquivalent checks identical behaviour under identical
// schedules, and experiment E8 measures the wire-size difference.

// CompactCtx is the two-counter context encoding.
type CompactCtx struct {
	Origin opid.ClientID
	Remote int    // number of server broadcasts received before generating
	OwnSeq uint64 // the operation's own per-client sequence number
}

// orderLog is a replica's view of the serialisation order: position i holds
// the operation with global sequence number i+1.
type orderLog []opid.OpID

// expand reconstructs the explicit context set from the compact form. The
// counters come from outside: both are checked against the log before either
// sizes the set. (Origin's earlier operations were serialised before this
// one, so the log holds them too.) A caller that only looks the context up
// passes the set of its previous call as out and gets it back refilled: a
// fresh O(history) set per operation is 25 MB of garbage per 800-op join.
func (l orderLog) expand(c CompactCtx, out opid.Set) (opid.Set, error) {
	if c.Remote < 0 || c.Remote > len(l) || c.OwnSeq > uint64(len(l))+1 {
		return nil, fmt.Errorf("css: compact context %+v reaches past an order log of %d ops", c, len(l))
	}
	if out == nil {
		out = make(opid.Set, c.Remote+int(c.OwnSeq))
	}
	clear(out)
	remote := 0
	for _, id := range l {
		if remote == c.Remote {
			break
		}
		if id.Client == c.Origin {
			continue
		}
		out.Put(id)
		remote++
	}
	if remote != c.Remote {
		return nil, fmt.Errorf("css: compact context needs %d remote ops for %s, order log has %d",
			c.Remote, c.Origin, remote)
	}
	for s := uint64(1); s < c.OwnSeq; s++ {
		out.Put(opid.OpID{Client: c.Origin, Seq: s})
	}
	return out, nil
}
