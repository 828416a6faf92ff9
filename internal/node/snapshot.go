package node

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"

	"cachecloud/internal/document"
)

// Snapshot is the serialised state of a cache node: its stored copies, the
// lookup records it owns as a beacon point, and its view of the sub-range
// layout. A node restarted from a snapshot rejoins the cloud warm instead
// of refetching its working set from peers and the origin.
type Snapshot struct {
	Node    string          `json:"node"`
	Assign  Assignments     `json:"assign"`
	Copies  []document.Copy `json:"copies"`
	Records []WireRecord    `json:"records"`
}

// SaveSnapshot writes the node's current state as JSON.
func (n *CacheNode) SaveSnapshot(w io.Writer) error {
	snap := Snapshot{Node: n.name}

	n.mu.Lock()
	snap.Assign = n.assign
	snap.Records = make([]WireRecord, 0, len(n.records))
	for url, rec := range n.records {
		snap.Records = append(snap.Records, WireRecord{URL: url, Version: rec.version, Holders: rec.holders.list()})
	}
	n.mu.Unlock()
	// Sorted records and holders make the encoding a function of the
	// state alone: two saves of the same state are byte-identical.
	sort.Slice(snap.Records, func(i, j int) bool { return snap.Records[i].URL < snap.Records[j].URL })

	for _, url := range n.store.Documents() {
		if cp, ok := n.store.Peek(url); ok {
			snap.Copies = append(snap.Copies, cp)
		}
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("node: encode snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot restores state saved by SaveSnapshot. It rejects snapshots
// taken by a different node. Stored copies re-enter the cache (subject to
// the capacity budget); owned lookup records and the sub-range layout are
// restored as-is.
func (n *CacheNode) LoadSnapshot(r io.Reader) error {
	var snap Snapshot
	if err := json.NewDecoder(io.LimitReader(r, 256<<20)).Decode(&snap); err != nil {
		return fmt.Errorf("node: decode snapshot: %w", err)
	}
	if snap.Node != n.name {
		return fmt.Errorf("node: snapshot belongs to %q, not %q", snap.Node, n.name)
	}
	now := n.now()
	for _, cp := range snap.Copies {
		if _, err := n.store.Put(cp, now); err != nil {
			continue // oversized for this budget: skip
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(snap.Assign.Rings) > 0 {
		n.assign = snap.Assign
		n.publishAssign()
	}
	for _, wr := range snap.Records {
		rec, ok := n.records[wr.URL]
		if !ok {
			rec = newNodeRecord()
			n.records[wr.URL] = rec
		}
		if wr.Version > rec.version {
			rec.version = wr.Version
		}
		for _, h := range wr.Holders {
			rec.holders.add(h)
		}
	}
	return nil
}

// SaveSnapshotFile writes the snapshot atomically (tmp file + rename).
func (n *CacheNode) SaveSnapshotFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := n.SaveSnapshot(f); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadSnapshotFile restores from a snapshot file; a missing file is not an
// error (cold start).
func (n *CacheNode) LoadSnapshotFile(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return n.LoadSnapshot(f)
}

// handleSnapshotSave persists the node's state to its configured snapshot
// file (POST /snapshot/save; 404 when no snapshot path is configured).
func (n *CacheNode) handleSnapshotSave(w http.ResponseWriter, r *http.Request) {
	if n.snapshotPath == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no snapshot path configured"))
		return
	}
	if err := n.SaveSnapshotFile(n.snapshotPath); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"saved": n.snapshotPath})
}

// SetSnapshotPath configures the file used by POST /snapshot/save.
func (n *CacheNode) SetSnapshotPath(path string) { n.snapshotPath = path }
