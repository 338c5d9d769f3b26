package css_test

import (
	"fmt"
	"testing"

	"jupiter/internal/core"
	"jupiter/internal/css"
	"jupiter/internal/opid"
	"jupiter/internal/sim"
	"jupiter/internal/statespace"
)

// All edges an operation labels share one order-key cell. These tests hold
// every edge of every replica to the key the protocol says it has at every
// step: PendingKey at its author until the author has the acknowledgement,
// and the server's sequence number everywhere else. That covers the rails
// laid while an operation was pending (promoted by the one store to the
// cell), states that survived CompactTo, and a copy of each client's space
// through MarshalJSON/UnmarshalJSON, on which the still-pending operations
// are then promoted.

// orderKeyCheck returns a logRig afterStep that checks every edge's key after
// each step, and the reloaded copies after every reloadEvery-th (the reload
// costs more than the rest of the run).
func orderKeyCheck(reloadEvery int) func(*logRig) error {
	steps := 0
	return func(r *logRig) error {
		steps++
		return checkOrderKeys(r, steps%reloadEvery == 0)
	}
}

func checkOrderKeys(r *logRig, reload bool) error {
	seq := make(map[opid.OpID]statespace.OrderKey)
	for i, id := range r.srv.Serialized() {
		seq[id] = statespace.OrderKey(i + 1)
	}
	if err := edgeKeys(r.srv.Space(), seq, nil); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	for _, id := range r.ids {
		// The author's own operations it has no acknowledgement for: those
		// still on their way to the server, and those whose ack is queued.
		pending := make(map[opid.OpID]bool)
		for _, m := range r.toServer[id] {
			pending[m.Op.ID] = true
		}
		for _, m := range r.toClient[id] {
			if m.Kind == css.MsgAck {
				pending[m.AckID] = true
			}
		}
		sp := r.clients[id].Space()
		if err := edgeKeys(sp, seq, pending); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if !reload || len(pending) == 0 {
			continue
		}
		data, err := sp.MarshalJSON()
		if err != nil {
			return err
		}
		back := statespace.New(nil)
		if err := back.UnmarshalJSON(data); err != nil {
			return fmt.Errorf("%s: reload: %w", id, err)
		}
		if err := edgeKeys(back, seq, pending); err != nil {
			return fmt.Errorf("%s reloaded: %w", id, err)
		}
		// Promote the reloaded copy's pending operations, to the number the
		// server gave them or, if it has not yet, to a made-up one.
		promoted := make(map[opid.OpID]statespace.OrderKey, len(seq)+len(pending))
		for op, k := range seq {
			promoted[op] = k
		}
		for op := range pending {
			if _, ok := seq[op]; !ok {
				promoted[op] = statespace.OrderKey(1<<32 + op.Seq)
			}
			if err := back.Promote(op, promoted[op]); err != nil {
				return fmt.Errorf("%s reloaded: %w", id, err)
			}
		}
		if err := edgeKeys(back, promoted, nil); err != nil {
			return fmt.Errorf("%s reloaded and promoted: %w", id, err)
		}
	}
	return nil
}

// edgeKeys checks every edge of sp (each state is reachable from the root):
// PendingKey for an operation in pending, its key in want otherwise.
func edgeKeys(sp *statespace.Space, want map[opid.OpID]statespace.OrderKey, pending map[opid.OpID]bool) error {
	seen := map[*statespace.State]bool{sp.Initial(): true}
	for queue := []*statespace.State{sp.Initial()}; len(queue) > 0; queue = queue[1:] {
		st := queue[0]
		for i := 0; i < st.EdgeCount(); i++ {
			e := st.EdgeAt(i)
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
			k, ok := want[e.Op.ID]
			if pending[e.Op.ID] {
				k, ok = statespace.PendingKey, true
			}
			if !ok {
				return fmt.Errorf("edge %s: %s has no key to check against", e, e.Op.ID)
			}
			if got := e.OrderKey(); got != k {
				return fmt.Errorf("edge %s has order key %d, want %d", e, got, k)
			}
		}
	}
	return nil
}

func TestOrderKeysExhaustive(t *testing.T) {
	cfg := exploreCfg()
	_, err := sim.Explore(sim.CSS, cfg, func(_ sim.Cluster, sched core.Schedule) error {
		for _, gcEvery := range []int{1, 3} {
			r := newLogRig(cfg.Clients, gcEvery == 1)
			r.afterStep = orderKeyCheck(4)
			if err := replayExplored(r, cfg, sched, gcEvery, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOrderKeysRandom(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		r, err := randomRun(seed, 3, 14, false, orderKeyCheck(16))
		if err == nil {
			err = r.quiesce()
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
