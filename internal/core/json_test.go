package core

import (
	"encoding/json"
	"strings"
	"testing"

	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

func sampleHistory() *History {
	var h History
	a := id(1, 1)
	d := id(2, 1)
	ea := list.Elem{Val: 'a', ID: a}
	h.Seed = []list.Elem{{Val: 's', ID: id(100, 1)}}
	h.Append("c1", ot.Ins('a', 0, a), []list.Elem{ea}, opid.NewSet())
	h.Append("c2", ot.Del(ea, 0, d), []list.Elem{}, opid.NewSet(a))
	h.Append("c2", ot.Nop(id(2, 2)), []list.Elem{}, opid.NewSet(a, d))
	h.Append("c1", ot.Read(id(-1, 1)), []list.Elem{}, opid.NewSet(a, d))
	return &h
}

func TestJSONRoundTrip(t *testing.T) {
	h := sampleHistory()
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back History
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != h.Len() || len(back.Seed) != 1 {
		t.Fatalf("shape lost: %d events, %d seed", back.Len(), len(back.Seed))
	}
	for i := range h.Events {
		a, b := h.Events[i], back.Events[i]
		if a.Replica != b.Replica || a.Op != b.Op || !h.Visible(i).Equal(back.Visible(i)) || len(a.Returned) != len(b.Returned) {
			t.Fatalf("event %d: %v vs %v", i, a, b)
		}
	}
	// Re-marshaling produces identical bytes (canonical form).
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("round trip is not canonical")
	}
}

func TestJSONKindCoverage(t *testing.T) {
	data, err := json.Marshal(sampleHistory())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"kind":"ins"`, `"kind":"del"`, `"kind":"nop"`, `"kind":"read"`} {
		if !strings.Contains(string(data), kind) {
			t.Errorf("serialized history missing %s", kind)
		}
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"unknown kind":   `{"events":[{"replica":"c1","op":{"kind":"zap","id":{"client":1,"seq":1}}}]}`,
		"bad ins val":    `{"events":[{"replica":"c1","op":{"kind":"ins","val":"xy","id":{"client":1,"seq":1}}}]}`,
		"del no elem":    `{"events":[{"replica":"c1","op":{"kind":"del","id":{"client":1,"seq":1}}}]}`,
		"bad seed":       `{"seed":[{"val":"zz","id":{"client":1,"seq":1}}]}`,
		"bad returned":   `{"events":[{"replica":"c1","op":{"kind":"nop","id":{"client":1,"seq":1}},"returned":[{"val":""}]}]}`,
		"malformed json": `{`,
	}
	for name, raw := range cases {
		var h History
		if err := json.Unmarshal([]byte(raw), &h); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
