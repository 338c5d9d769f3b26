package main

import (
	"fmt"
	"sort"
	"sync"

	"jupiter/internal/client"
	"jupiter/internal/core"
	"jupiter/internal/spec"
)

// oracle checks the warm-up round against the paper's specification. Every
// replica of that round records its do events; afterwards each document's
// history must satisfy the weak list specification and convergence. Measured
// rounds run without a recorder, which copies the list on every operation.
//
// Histories are kept per document because the engine numbers clients from 1
// in each document, so operation identities repeat across documents. The
// engine gets a recorder of its own: css.Server records only reads, which the
// engine never issues, so that history must stay empty.
//
// A nil *oracle is a round that is not checked: its methods do nothing.
type oracle struct {
	mu     sync.Mutex
	docs   map[string]*docHistory
	engine core.History
}

// docHistory is one document's history behind the lock its replicas share.
type docHistory struct {
	h   core.History
	rec core.LockedRecorder
}

func newOracle() *oracle { return &oracle{docs: map[string]*docHistory{}} }

func (o *oracle) engineRecorder() core.Recorder { return &core.LockedRecorder{R: &o.engine} }

// recorder returns the shared recorder of a document's replicas.
func (o *oracle) recorder(doc string) core.Recorder {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	d, ok := o.docs[doc]
	if !ok {
		d = &docHistory{}
		d.rec.R = &d.h
		o.docs[doc] = d
	}
	return &d.rec
}

// observe records the replica's final read, which is what the convergence
// check compares across replicas that have seen the same operations.
func (o *oracle) observe(c *client.Client) {
	if o != nil {
		c.Read()
	}
}

// check returns one line per violated specification.
func (o *oracle) check() (violations []string, events int) {
	if n := o.engine.Len(); n > 0 {
		violations = append(violations, fmt.Sprintf("engine recorded %d events of its own", n))
	}
	docs := make([]string, 0, len(o.docs))
	for d := range o.docs {
		docs = append(docs, d)
	}
	sort.Strings(docs)
	for _, d := range docs {
		h := &o.docs[d].h
		events += h.Len()
		if err := h.WellFormed(); err != nil {
			violations = append(violations, fmt.Sprintf("%s: %v", d, err))
		}
		if err := spec.CheckWeak(h); err != nil {
			violations = append(violations, fmt.Sprintf("%s: weak list specification: %v", d, err))
		}
		if err := spec.CheckConvergence(h); err != nil {
			violations = append(violations, fmt.Sprintf("%s: convergence: %v", d, err))
		}
	}
	return violations, events
}
