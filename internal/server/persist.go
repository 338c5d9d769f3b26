package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"

	"jupiter/internal/css"
	"jupiter/internal/opid"
	"jupiter/internal/wire"
)

// Engine persistence — jupiterd restart without losing client sessions.
//
// A standalone engine configured with PersistDir writes, on graceful
// shutdown, one JSON file per hosted document: the css.Server's log (the
// frontier prefix of the serialization order, the operations past it and the
// per-client counters — persist.go in internal/css, which rebuilds the
// state-space from them as a late joiner would) plus the session layer the
// resume protocol depends on — each client's retained outbox, frame-sequence
// counters, and operation-dedup watermark. On the first Hello for a document
// after restart, the engine reloads the file, so a reconnecting client
// resumes exactly as if the server had never gone away: its unacknowledged
// ops are blind-resent and deduplicated by the restored watermark, and the
// missed outbox suffix is replayed from the restored retention.
//
// Replicated engines ignore PersistDir: there, followers ARE the durability
// mechanism, and a killed node's sessions fail over instead of restarting.

type persistedSlot struct {
	ID        int32         `json:"id"`
	Outbox    []wire.Server `json:"outbox"`
	NextSeq   uint64        `json:"nextSeq"`
	AckedSeq  uint64        `json:"ackedSeq"`
	LastOpSeq uint64        `json:"lastOpSeq"`
}

type persistedDoc struct {
	Doc    string          `json:"doc"`
	Server json.RawMessage `json:"server"`
	Slots  []persistedSlot `json:"slots"`
	NextID int32           `json:"nextId"`
}

func (e *Engine) persistEnabled() bool {
	return e.cfg.PersistDir != "" && e.repl == nil
}

func (e *Engine) docFile(doc string) string {
	return filepath.Join(e.cfg.PersistDir, url.PathEscape(doc)+".json")
}

// persistedStateExists reports whether a persisted save for doc is on disk.
func (e *Engine) persistedStateExists(doc string) bool {
	_, err := os.Stat(e.docFile(doc))
	return err == nil
}

// removePersistedState deletes doc's persisted save, if any — called when a
// migration hands the state to another shard, so a later restart of this
// engine cannot resurrect the stale copy.
func (e *Engine) removePersistedState(doc string) {
	if !e.persistEnabled() {
		return
	}
	if err := os.Remove(e.docFile(doc)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		e.logf("doc %q: remove persisted state after migration: %v", doc, err)
	}
}

// exportState serializes the document — the css server's log plus the
// session layer (outboxes, frame-seq counters, dedup watermarks) — as one
// persistedDoc blob. Its size follows the operations past the GC frontier and
// the unacknowledged outboxes, not the document's history. It is both the
// persistence format and the migration transfer format: a target shard that
// importStates the blob resumes client sessions exactly as a restarted server
// would. Must run on the apply loop (h.call) or after it has stopped.
func (h *docHost) exportState() ([]byte, error) {
	srvState, err := h.srv.Save()
	if err != nil {
		return nil, fmt.Errorf("server: export doc %q: %w", h.name, err)
	}
	pd := persistedDoc{Doc: h.name, Server: srvState, NextID: h.nextID}
	for _, id := range h.srv.Clients() {
		slot, ok := h.clients[id]
		if !ok {
			continue
		}
		outbox := make([]wire.Server, len(slot.outbox))
		for i := range slot.outbox {
			outbox[i] = slot.outbox[i].fr
		}
		pd.Slots = append(pd.Slots, persistedSlot{
			ID:        int32(slot.id),
			Outbox:    outbox,
			NextSeq:   slot.nextSeq,
			AckedSeq:  slot.ackedSeq,
			LastOpSeq: slot.lastOpSeq,
		})
	}
	data, err := json.Marshal(pd)
	if err != nil {
		return nil, fmt.Errorf("server: export doc %q: %w", h.name, err)
	}
	return data, nil
}

// importState restores a doc host from an exportState blob. Called before
// the host's apply loop starts, so the fields are written directly.
func (h *docHost) importState(data []byte) error {
	var pd persistedDoc
	if err := json.Unmarshal(data, &pd); err != nil {
		return fmt.Errorf("server: import doc %q: %w", h.name, err)
	}
	if pd.Doc != h.name {
		return fmt.Errorf("server: import doc %q: blob holds %q", h.name, pd.Doc)
	}
	srv, err := css.RestoreServer(pd.Server, h.eng.cfg.Recorder)
	if err != nil {
		return fmt.Errorf("server: import doc %q: %w", h.name, err)
	}
	h.srv = srv
	h.srv.UseCompactContexts()
	h.nextID = pd.NextID
	for _, ps := range pd.Slots {
		id := opid.ClientID(ps.ID)
		outbox := make([]outEntry, len(ps.Outbox))
		for i := range ps.Outbox {
			outbox[i] = outEntry{fr: ps.Outbox[i]}
		}
		h.clients[id] = &clientSlot{
			id:        id,
			outbox:    outbox,
			nextSeq:   ps.NextSeq,
			ackedSeq:  ps.AckedSeq,
			lastOpSeq: ps.LastOpSeq,
		}
	}
	return nil
}

// persistDocs saves every hosted document. Called from Shutdown after all
// goroutines joined, so the doc hosts' state is quiescent and safe to read
// directly.
func (e *Engine) persistDocs(docs []*docHost) error {
	if !e.persistEnabled() {
		return nil
	}
	if err := os.MkdirAll(e.cfg.PersistDir, 0o755); err != nil {
		return fmt.Errorf("server: persist: %w", err)
	}
	for _, h := range docs {
		data, err := h.exportState()
		if err != nil {
			return fmt.Errorf("server: persist doc %q: %w", h.name, err)
		}
		tmp := e.docFile(h.name) + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return fmt.Errorf("server: persist doc %q: %w", h.name, err)
		}
		if err := os.Rename(tmp, e.docFile(h.name)); err != nil {
			return fmt.Errorf("server: persist doc %q: %w", h.name, err)
		}
		e.logf("doc %q: persisted (%d bytes, %d sessions)", h.name, len(data), len(h.clients))
	}
	return nil
}

// loadPersisted restores a doc host from PersistDir, if a save exists. Called
// before the host's apply loop starts, so the fields are written directly.
func (h *docHost) loadPersisted() error {
	path := h.eng.docFile(h.name)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: load doc %q: %w", h.name, err)
	}
	if err := h.importState(data); err != nil {
		return fmt.Errorf("server: load doc %q: %w", h.name, err)
	}
	h.eng.logf("doc %q: restored from %s (%d sessions, seq %d)", h.name, path, len(h.clients), h.srv.SeqOf())
	return nil
}
