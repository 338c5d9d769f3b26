package spec_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
	"jupiter/internal/sim"
	"jupiter/internal/spec"
)

// The reference checkers below are the straightforward forms of the weak
// and strong list specifications: condition 1 replayed from scratch for
// every event, condition 2 as pairwise compatibility of every two distinct
// returned lists (Lemma 8.3), and strong acyclicity by depth-first search.
// They are quadratic and exist only to pin the verdicts of spec.CheckWeak
// and spec.CheckStrong.

// refCheck returns the reference verdicts on h: weak, then strong.
func refCheck(h *core.History) (weak, strong error) {
	if err := refCondition1(h); err != nil {
		v := *err
		v.Spec = spec.StrongList
		return err, &v
	}
	return refPairwiseCompatibility(h), refListOrderAcyclic(h)
}

// refCondition1 reports a condition 1 violation as one of the weak list
// specification.
func refCondition1(h *core.History) *spec.Violation {
	const s = spec.WeakList
	byID := make(map[opid.OpID]ot.Op)
	for _, u := range h.Events {
		if u.Op.IsUpdate() {
			byID[u.Op.ID] = u.Op
		}
	}
	for _, e := range h.Events {
		seen := make(map[opid.OpID]struct{}, len(e.Returned))
		for _, el := range e.Returned {
			if _, dup := seen[el.ID]; dup {
				return &spec.Violation{Spec: s, Reason: fmt.Sprintf("returned list %q contains element %s twice", list.Render(e.Returned), el.ID)}
			}
			seen[el.ID] = struct{}{}
		}
		want := make(map[opid.OpID]struct{}, len(h.Seed))
		for _, el := range h.Seed {
			want[el.ID] = struct{}{}
		}
		for _, kind := range []ot.Kind{ot.KindIns, ot.KindDel} {
			apply := func(u ot.Op) {
				if u.Kind != kind {
					return
				}
				if kind == ot.KindIns {
					want[u.Elem.ID] = struct{}{}
				} else {
					delete(want, u.Elem.ID)
				}
			}
			for id := range e.Visible {
				if u, ok := byID[id]; ok {
					apply(u)
				}
			}
			if e.Op.IsUpdate() {
				apply(e.Op)
			}
		}
		if len(want) != len(e.Returned) {
			return &spec.Violation{Spec: s, Reason: fmt.Sprintf("condition 1a: returned %d elements, %d visible live elements", len(e.Returned), len(want))}
		}
		for _, el := range e.Returned {
			if _, ok := want[el.ID]; !ok {
				return &spec.Violation{Spec: s, Reason: fmt.Sprintf("condition 1a: returned element %s is not visible-and-live", el.ID)}
			}
		}
		if e.Op.Kind == ot.KindIns {
			n := len(e.Returned)
			if n == 0 {
				return &spec.Violation{Spec: s, Reason: "condition 1c: insert returned an empty list"}
			}
			if e.Returned[min(e.Op.Pos, n-1)].ID != e.Op.Elem.ID {
				return &spec.Violation{Spec: s, Reason: fmt.Sprintf("condition 1c: %s not at position min(%d,%d)", e.Op, e.Op.Pos, n-1)}
			}
		}
	}
	return nil
}

func refPairwiseCompatibility(h *core.History) error {
	seen := make(map[string]bool)
	var reps [][]list.Elem
	for _, e := range h.Events {
		var k strings.Builder
		for _, el := range e.Returned {
			k.WriteString(strconv.FormatInt(int64(el.ID.Client), 10) + "." + strconv.FormatUint(el.ID.Seq, 10) + ",")
		}
		if !seen[k.String()] {
			seen[k.String()] = true
			reps = append(reps, e.Returned)
		}
	}
	// Dense element numbers, so a pair check is a scan of flat arrays.
	num := make(map[opid.OpID]int)
	seqs := make([][]int, len(reps))
	for i, w := range reps {
		for _, el := range w {
			if _, ok := num[el.ID]; !ok {
				num[el.ID] = len(num)
			}
			seqs[i] = append(seqs[i], num[el.ID])
		}
	}
	pos := make([]int, len(num)) // 1-based position in reps[i]; 0 = absent
	for i := range reps {
		clear(pos)
		for p, x := range seqs[i] {
			pos[x] = p + 1
		}
		for j := i + 1; j < len(reps); j++ {
			last := 0
			for _, x := range seqs[j] {
				if pos[x] == 0 {
					continue
				}
				if pos[x] <= last {
					return &spec.Violation{Spec: spec.WeakList, Reason: fmt.Sprintf("incompatible returned lists %q and %q", list.Render(reps[i]), list.Render(reps[j]))}
				}
				last = pos[x]
			}
		}
	}
	return nil
}

func refListOrderAcyclic(h *core.History) error {
	adj := make(map[opid.OpID]map[opid.OpID]bool)
	for _, e := range h.Events {
		for k := 0; k+1 < len(e.Returned); k++ {
			a, b := e.Returned[k].ID, e.Returned[k+1].ID
			if adj[a] == nil {
				adj[a] = make(map[opid.OpID]bool)
			}
			adj[a][b] = true
		}
	}
	color := make(map[opid.OpID]int) // 0 white, 1 grey, 2 black
	var dfs func(u opid.OpID) bool
	dfs = func(u opid.OpID) bool {
		color[u] = 1
		for v := range adj[u] {
			if color[v] == 1 || color[v] == 0 && dfs(v) {
				return true
			}
		}
		color[u] = 2
		return false
	}
	for u := range adj {
		if color[u] == 0 && dfs(u) {
			return &spec.Violation{Spec: spec.StrongList, Reason: "the list order has a cycle"}
		}
	}
	return nil
}

// sameVerdicts fails t unless CheckWeak and CheckStrong agree with the
// references on h: both pass, or both fail the same specification for the
// same cause. A condition 1 violation must carry the reference's reason
// word for word; the list-order violations may name different lists. It
// reports how many of the two specifications h violates.
func sameVerdicts(t *testing.T, name string, h *core.History) (violated int) {
	t.Helper()
	weak, strong := refCheck(h)
	for _, c := range []struct {
		got   func(*core.History) error
		want  error
		cause string
	}{
		{spec.CheckWeak, weak, "incompatible"},
		{spec.CheckStrong, strong, "cycle"},
	} {
		got, want := c.got(h), c.want
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: got %v, reference %v\n%s", name, got, want, h)
		}
		if got == nil {
			continue
		}
		violated++
		gv, _ := spec.AsViolation(got)
		wv, _ := spec.AsViolation(want)
		if gv.Spec != wv.Spec {
			t.Fatalf("%s: got %v, reference %v", name, got, want)
		}
		if strings.Contains(wv.Reason, c.cause) {
			if !strings.Contains(gv.Reason, c.cause) {
				t.Fatalf("%s: got %v, reference %v", name, got, want)
			}
		} else if gv.Reason != wv.Reason {
			t.Fatalf("%s: got %q, reference %q", name, gv.Reason, wv.Reason)
		}
	}
	return violated
}

// mutate returns a copy of h with one returned list changed: two adjacent
// elements swapped, or (drop) one element removed. It returns nil if h has
// no list long enough.
func mutate(h *core.History, r *rand.Rand, drop bool) *core.History {
	var long []int
	for i, e := range h.Events {
		if len(e.Returned) >= 2 {
			long = append(long, i)
		}
	}
	if len(long) == 0 {
		return nil
	}
	m := &core.History{Events: append([]core.Event(nil), h.Events...), Seed: h.Seed}
	e := &m.Events[long[r.Intn(len(long))]]
	w := append([]list.Elem(nil), e.Returned...)
	k := r.Intn(len(w) - 1)
	if drop {
		w = append(w[:k], w[k+1:]...)
	} else {
		w[k], w[k+1] = w[k+1], w[k]
	}
	e.Returned = w
	return m
}

// TestCheckersMatchReference runs both checkers and the references over
// seeded sim histories of five protocols and over mutated copies of each.
func TestCheckersMatchReference(t *testing.T) {
	protocols := []sim.Protocol{sim.CSS, sim.CSCW, sim.RGA, sim.WOOT, sim.Broken}
	histories, violations := 0, 0
	for _, p := range protocols {
		// 12 seeds cover every pair of 2–5 clients and delete ratio 0,
		// 0.3 or 0.6 once; the operation count walks 5–35.
		for seed := int64(1); seed <= 12; seed++ {
			r := rand.New(rand.NewSource(seed))
			clients, ops := 2+int(seed%4), 5+int(seed*13%31)
			del := []float64{0, 0.3, 0.6}[seed%3]
			cl, err := sim.NewCluster(p, sim.Config{Clients: clients, Record: true})
			if err != nil {
				t.Fatal(err)
			}
			// The broken protocol may fail mid-run; what it recorded up
			// to there is still a history to check.
			if err := sim.RunRandom(cl, sim.Workload{Seed: seed, OpsPerClient: ops, DeleteRatio: del}, true); err != nil && p != sim.Broken {
				t.Fatalf("%s seed %d: %v", p, seed, err)
			}
			name := fmt.Sprintf("%s/%dx%d/del=%.1f/seed=%d", p, clients, ops, del, seed)
			h := cl.History()
			violations += sameVerdicts(t, name, h)
			histories++
			// One mutated copy: a swap on odd seeds, a drop on even ones.
			if m := mutate(h, r, seed%2 == 0); m != nil {
				violations += sameVerdicts(t, name+"/mutated", m)
				histories++
			}
		}
	}
	// The sweep must exercise failing verdicts too, or it pins nothing.
	if violations < histories/4 {
		t.Fatalf("only %d violations over %d histories", violations, histories)
	}
	t.Logf("%d histories, %d violations", histories, violations)
}

// history builds a hand-made history, one event per step.
type history struct{ core.History }

func (h *history) ins(replica string, e list.Elem, pos int, w []list.Elem, vis ...opid.OpID) {
	h.Append(replica, ot.Ins(e.Val, pos, e.ID), w, opid.NewSet(vis...))
}

func (h *history) del(replica string, e list.Elem, id opid.OpID, w []list.Elem, vis ...opid.OpID) {
	h.Append(replica, ot.Del(e, 0, id), w, opid.NewSet(vis...))
}

func (h *history) read(replica string, w []list.Elem, vis ...opid.OpID) {
	h.Append(replica, ot.Read(opid.OpID{Client: -1, Seq: uint64(h.Len() + 1)}), w, opid.NewSet(vis...))
}

func elem(v rune, client int32) list.Elem {
	return list.Elem{Val: v, ID: opid.OpID{Client: opid.ClientID(client), Seq: 1}}
}

func TestHandBuiltVerdicts(t *testing.T) {
	a, b, c, d := elem('a', 1), elem('b', 2), elem('c', 3), elem('d', 4)
	w := func(es ...list.Elem) []list.Elem { return es }
	cases := []struct {
		name         string
		build        func(h *history)
		weak, strong bool // whether each holds
	}{{
		// The three lists are pairwise compatible, but a → b → c → a is a
		// cycle: one component of three elements.
		name: "triangle",
		build: func(h *history) {
			h.ins("c1", a, 0, w(a))
			h.ins("c2", b, 0, w(b))
			h.ins("c3", c, 0, w(c))
			h.read("c1", w(a, b), a.ID, b.ID)
			h.read("c2", w(b, c), b.ID, c.ID)
			h.read("c3", w(c, a), c.ID, a.ID)
		},
		weak: true,
	}, {
		// a → b → c → a is one component. The first read puts a before c,
		// not adjacent; the second puts c before a. d stays a component of
		// its own.
		name: "conflict inside a component",
		build: func(h *history) {
			h.ins("c1", a, 0, w(a))
			h.ins("c2", b, 0, w(b))
			h.ins("c3", c, 0, w(c))
			h.ins("c4", d, 0, w(d))
			h.read("c1", w(d, a, b, c), a.ID, b.ID, c.ID, d.ID)
			h.read("c2", w(d, c, a), a.ID, c.ID, d.ID)
		},
	}, {
		// c1's second read sees less than its first: condition 1 must
		// start over from the seed, so b is not expected.
		name: "visible set shrinks",
		build: func(h *history) {
			h.ins("c1", a, 0, w(a))
			h.ins("c2", b, 0, w(b))
			h.read("c1", w(b, a), a.ID, b.ID)
			h.read("c1", w(a), a.ID)
		},
		weak: true, strong: true,
	}, {
		name: "visible set shrinks, stale element returned",
		build: func(h *history) {
			h.ins("c1", a, 0, w(a))
			h.ins("c2", b, 0, w(b))
			h.read("c1", w(b, a), a.ID, b.ID)
			h.read("c1", w(b, a), a.ID)
		},
	}, {
		// c2 sees the delete of a before it sees a's insert: a stays
		// deleted once the insert becomes visible too.
		name: "delete visible before its insert",
		build: func(h *history) {
			h.ins("c1", a, 0, w(a))
			h.del("c1", a, opid.OpID{Client: 1, Seq: 2}, w(), a.ID)
			h.read("c2", w(), opid.OpID{Client: 1, Seq: 2})
			h.read("c2", w(), a.ID, opid.OpID{Client: 1, Seq: 2})
		},
		weak: true, strong: true,
	}}
	for _, tc := range cases {
		var h history
		tc.build(&h)
		sameVerdicts(t, tc.name, &h.History)
		if got := spec.CheckWeak(&h.History) == nil; got != tc.weak {
			t.Errorf("%s: weak holds = %v, want %v: %v", tc.name, got, tc.weak, spec.CheckWeak(&h.History))
		}
		if got := spec.CheckStrong(&h.History) == nil; got != tc.strong {
			t.Errorf("%s: strong holds = %v, want %v: %v", tc.name, got, tc.strong, spec.CheckStrong(&h.History))
		}
	}
}
