package node

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"cachecloud/internal/document"
)

// newOfflineNode builds a cache node whose transport fails every outbound
// call, for driving its handlers in-process.
func newOfflineNode(t *testing.T) *CacheNode {
	t.Helper()
	cfg := ClusterConfig{
		IntraGen: 100,
		Rings:    [][]string{{"n0", "n1"}},
		Addrs: map[string]string{
			"n0": "http://127.0.0.1:1", "n1": "http://127.0.0.1:2",
		},
		OriginAddr: "http://127.0.0.1:3",
	}
	n, err := NewCacheNodeWithTransport("n0", cfg, fuzzTransport{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestUpdateLookupConcurrentRecord drives /update and /lookup for one URL
// concurrently through the handler. Both observe and read the record's
// monitors; run under -race this catches a rate read outside the node
// lock. The requests go through ServeHTTP directly: loopback sockets
// would order the goroutines' accesses and hide the race.
func TestUpdateLookupConcurrentRecord(t *testing.T) {
	n := newOfflineNode(t)
	h := n.Handler()
	const url = "http://live/doc/1"
	update := func(v int) {
		body, err := json.Marshal(UpdateRequest{Doc: document.Document{URL: url, Size: 100, Version: document.Version(v)}})
		if err != nil {
			t.Error(err)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("/update: status %d: %s", rec.Code, rec.Body)
		}
	}
	update(1) // creates the record, so lookups answer from it
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				update(2 + g*50 + i)
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/lookup?url="+url, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("/lookup: status %d: %s", rec.Code, rec.Body)
				}
			}
		}()
	}
	wg.Wait()
	if got := n.localLookup(url); got.Version != 201 || got.UpdateRate <= 0 || got.LookupRate <= 0 {
		t.Fatalf("record after the run: %+v", got)
	}
}

// TestRecordHoldersSortedAndIdempotent checks the beacon record layout:
// holders come out sorted from Records and SaveSnapshot whatever order
// they registered in, two saves of one state are byte-identical, and
// adding or removing a duplicate holder changes nothing.
func TestRecordHoldersSortedAndIdempotent(t *testing.T) {
	n := newOfflineNode(t)
	var urls []string // documents whose beacon duty is n0's own
	for i := 0; len(urls) < 20; i++ {
		u := fmt.Sprintf("http://live/doc/%d", i)
		if owner, err := n.assign.ownerOf(u, n.cfg.IntraGen); err != nil || owner != n.name {
			continue
		}
		urls = append(urls, u)
		for _, h := range []string{"n9", "n1", "n5", "n1", "n3", "n9"} {
			n.localRegister(u, h)
		}
		n.localDeregister(u, "n3")
		n.localDeregister(u, "n3") // absent: no-op
		n.localDeregister(u, "n7") // never registered: no-op
	}
	want := []string{"n1", "n5", "n9"}

	recs := n.Records()
	if len(recs) != len(urls) {
		t.Fatalf("Records has %d entries, want %d", len(recs), len(urls))
	}
	for _, wr := range recs {
		if !slices.Equal(wr.Holders, want) {
			t.Fatalf("Records %s holders = %v, want %v", wr.URL, wr.Holders, want)
		}
	}

	var a, b bytes.Buffer
	if err := n.SaveSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := n.SaveSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two saves of one state differ:\n%s\n%s", a.String(), b.String())
	}
	var snap Snapshot
	if err := json.NewDecoder(strings.NewReader(a.String())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if !slices.IsSortedFunc(snap.Records, func(x, y WireRecord) int { return strings.Compare(x.URL, y.URL) }) {
		t.Fatal("snapshot records not sorted by URL")
	}
	for _, wr := range snap.Records {
		if !slices.Equal(wr.Holders, want) {
			t.Fatalf("snapshot %s holders = %v, want %v", wr.URL, wr.Holders, want)
		}
	}

	// A handed-out holder list is a copy: mutating it leaves the record
	// alone.
	got := n.localLookup(urls[0]).Holders
	got[0] = "zz"
	if again := n.localLookup(urls[0]).Holders; !slices.Equal(again, want) {
		t.Fatalf("lookup holders aliased the record: %v", again)
	}

	// A record whose holders all left answers with no holder list, as
	// before: the wire form stays "holders": null.
	for _, h := range want {
		n.localDeregister(urls[1], h)
	}
	if got := n.localLookup(urls[1]).Holders; got != nil {
		t.Fatalf("drained record lists holders %#v, want nil", got)
	}
}
