package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecloud/internal/document"
)

// memNet dispatches node-to-node calls straight into the target's
// handler and counts them per host and path, so a test can assert which
// RPCs a scenario made without sockets or timing.
type memNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	calls    map[string]int  // "host path" → calls
	down     map[string]bool // hosts whose calls fail
}

func (m *memNet) GetJSON(ctx context.Context, rawurl string, out any) error {
	return m.call(http.MethodGet, rawurl, nil, out)
}

func (m *memNet) PostJSON(ctx context.Context, rawurl string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return m.call(http.MethodPost, rawurl, body, out)
}

func (m *memNet) call(method, rawurl string, body []byte, out any) error {
	u, err := url.Parse(rawurl)
	if err != nil {
		return err
	}
	m.mu.Lock()
	h := m.handlers[u.Host]
	m.calls[u.Host+" "+u.Path]++
	down := m.down[u.Host]
	m.mu.Unlock()
	if h == nil || down {
		return fmt.Errorf("memnet: %s unreachable", u.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, rawurl, bytes.NewReader(body)))
	if rec.Code == http.StatusNotFound {
		return ErrNotFound
	}
	if rec.Code/100 != 2 {
		return fmt.Errorf("memnet: %s %s: status %d", method, rawurl, rec.Code)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

func (m *memNet) setDown(name string, down bool) {
	m.mu.Lock()
	m.down[name+".test"] = down
	m.mu.Unlock()
}

// count returns the calls made to path on the named participant ("" for
// every participant).
func (m *memNet) count(name, path string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	for k, v := range m.calls {
		host, p, _ := strings.Cut(k, " ")
		if p == path && (name == "" || host == name+".test") {
			total += v
		}
	}
	return total
}

// memCluster is three cache nodes in one ring plus an origin, wired
// through one memNet. Each cache fits docs catalog documents; every
// further store evicts the least recently used one.
type memCluster struct {
	cfg    ClusterConfig
	net    *memNet
	caches map[string]*CacheNode
	docs   []document.Document
}

func newMemCluster(t *testing.T, docs int) *memCluster {
	t.Helper()
	names := []string{"n0", "n1", "n2"}
	cfg := ClusterConfig{
		IntraGen:      100,
		Rings:         [][]string{names},
		Addrs:         map[string]string{},
		OriginAddr:    "http://origin.test",
		CapacityBytes: int64(docs) * 1100, // catalog sizes are 1000+i
	}
	for _, n := range names {
		cfg.Addrs[n] = "http://" + n + ".test"
	}
	mc := &memCluster{
		cfg:    cfg,
		net:    &memNet{handlers: map[string]http.Handler{}, calls: map[string]int{}, down: map[string]bool{}},
		caches: map[string]*CacheNode{},
		docs:   testCatalog(60),
	}
	origin, err := NewOriginNodeWithTransport(cfg, mc.docs, mc.net)
	if err != nil {
		t.Fatal(err)
	}
	mc.net.handlers["origin.test"] = origin.Handler()
	for _, n := range names {
		cn, err := NewCacheNodeWithTransport(n, cfg, mc.net)
		if err != nil {
			t.Fatal(err)
		}
		mc.caches[n] = cn
		mc.net.handlers[n+".test"] = cn.Handler()
	}
	return mc
}

// docOwnedBy returns the i-th catalog URL whose beacon is owner under the
// initial assignment.
func (mc *memCluster) docOwnedBy(t *testing.T, owner string, i int) string {
	t.Helper()
	a := equalSplit(mc.cfg)
	for _, d := range mc.docs {
		if o, err := a.ownerOf(d.URL, mc.cfg.IntraGen); err == nil && o == owner {
			if i == 0 {
				return d.URL
			}
			i--
		}
	}
	t.Fatalf("catalog has too few documents owned by %s", owner)
	return ""
}

// get requests a document at a node as a client would.
func (mc *memCluster) get(t *testing.T, at, docURL string) DocResponse {
	t.Helper()
	var dr DocResponse
	if err := mc.net.GetJSON(context.Background(), mc.cfg.Addrs[at]+"/doc?url="+queryEscape(docURL), &dr); err != nil {
		t.Fatalf("GET %s at %s: %v", docURL, at, err)
	}
	return dr
}

// lists reports whether beacon's record for docURL lists holder.
func (mc *memCluster) lists(beacon, docURL, holder string) bool {
	return recordLists(mc.caches[beacon], docURL, holder)
}

// recordLists reports whether beacon's record for docURL lists holder.
func recordLists(beacon *CacheNode, docURL, holder string) bool {
	for _, wr := range beacon.Records() {
		if wr.URL == docURL {
			return slices.Contains(wr.Holders, holder)
		}
	}
	return false
}

// pendingSnapshot returns, per beacon, the sorted URLs n still owes that
// beacon a deregistration for.
func pendingSnapshot(n *CacheNode) map[string][]string {
	out := make(map[string][]string)
	for _, beacon := range n.goneBeacons() {
		out[beacon], _ = n.pendingGone(beacon)
	}
	return out
}

// TestEvictionDeregistersLazily: an eviction makes no RPC of its own. The
// remote beacon keeps listing the evicting node until that node's next
// /register to it, which carries the URL in gone.
func TestEvictionDeregistersLazily(t *testing.T) {
	mc := newMemCluster(t, 1)
	a, c := mc.docOwnedBy(t, "n1", 0), mc.docOwnedBy(t, "n1", 1)
	b := mc.docOwnedBy(t, "n2", 0)

	mc.get(t, "n0", a)
	if !mc.lists("n1", a, "n0") {
		t.Fatalf("n1 does not list n0 for %s after the store", a)
	}
	registers := mc.net.count("n1", "/register")
	mc.get(t, "n0", b) // evicts a
	if got := mc.net.count("", "/deregister"); got != 0 {
		t.Fatalf("%d /deregister calls, want 0", got)
	}
	if mc.net.count("n1", "/register") != registers {
		t.Fatalf("the eviction called n1")
	}
	if !mc.lists("n1", a, "n0") {
		t.Fatalf("n1 dropped n0 for %s before any /register to it", a)
	}
	if got := pendingSnapshot(mc.caches["n0"]); !slices.Equal(got["n1"], []string{a}) {
		t.Fatalf("pending = %v, want n1: [%s]", got, a)
	}

	mc.get(t, "n0", c) // evicts b; registers c at n1 carrying a
	if mc.lists("n1", a, "n0") {
		t.Fatalf("n1 still lists n0 for %s after the /register flush", a)
	}
	if !mc.lists("n1", c, "n0") {
		t.Fatalf("n1 does not list n0 for %s", c)
	}
	if got := pendingSnapshot(mc.caches["n0"]); !slices.Equal(got["n2"], []string{b}) || len(got) != 1 {
		t.Fatalf("pending = %v, want only n2: [%s]", got, b)
	}
}

// TestRestoreCancelsPendingGone: storing a URL again cancels its pending
// entry. Here the re-store registers through a failover sibling, so only
// the cancel keeps the next flush to the beacon from dropping a holder
// that stores the copy.
func TestRestoreCancelsPendingGone(t *testing.T) {
	mc := newMemCluster(t, 2)
	a, c := mc.docOwnedBy(t, "n1", 0), mc.docOwnedBy(t, "n1", 1)
	b, d := mc.docOwnedBy(t, "n2", 0), mc.docOwnedBy(t, "n2", 1)

	mc.get(t, "n0", a)
	mc.get(t, "n0", b)
	mc.get(t, "n0", d) // evicts a: pending at n1
	mc.net.setDown("n1", true)
	if dr := mc.get(t, "n0", a); !dr.FailedOver || !dr.Stored { // evicts b
		t.Fatalf("re-store of %s: %+v, want a stored failover", a, dr)
	}
	mc.net.setDown("n1", false)
	if got := pendingSnapshot(mc.caches["n0"])["n1"]; len(got) != 0 {
		t.Fatalf("pending at n1 = %v after the re-store, want none", got)
	}
	mc.get(t, "n0", c) // evicts d; registers c at n1
	if _, ok := mc.caches["n0"].StoredVersions()[a]; !ok {
		t.Fatalf("n0 no longer stores %s", a)
	}
	if !mc.lists("n1", a, "n0") {
		t.Fatalf("n1 dropped n0 for %s though n0 stores it", a)
	}
}

// TestClearGoneKeepsRequeued: a flush clears only the entries it carried.
// An entry cancelled and queued again while the flush was in flight is a
// newer eviction and stays pending.
func TestClearGoneKeepsRequeued(t *testing.T) {
	n := newOfflineNode(t)
	n.queueGone("n1", "u1")
	n.queueGone("n1", "u2")
	urls, mark := n.pendingGone("n1")
	n.cancelGone("u1")
	n.queueGone("n1", "u1")
	n.clearGone("n1", urls, mark)
	if got := pendingSnapshot(n); !slices.Equal(got["n1"], []string{"u1"}) || len(got) != 1 {
		t.Fatalf("pending = %v, want only n1: [u1]", got)
	}
}

// TestFlushRacingRestoreReregisters: a URL stored again while a flush
// carrying it is in flight, whose re-store /register reaches the beacon
// before the flush's removal, is registered again once the flush
// succeeds, so the beacon lists every stored copy.
func TestFlushRacingRestoreReregisters(t *testing.T) {
	ctx := context.Background()
	mc := newMemCluster(t, 1)
	a := mc.docOwnedBy(t, "n1", 0)
	b := mc.docOwnedBy(t, "n2", 0)
	n0 := mc.caches["n0"]

	mc.get(t, "n0", a)
	mc.get(t, "n0", b) // evicts a: pending at n1
	urls, mark := n0.pendingGone("n1")
	mc.get(t, "n0", a) // re-store: cancels the entry, registers a at n1
	// The flush's removal lands after the re-store's /register.
	if err := mc.net.PostJSON(ctx, mc.cfg.Addrs["n1"]+"/reconcile", ReconcileRequest{Node: "n0", Gone: urls}, nil); err != nil {
		t.Fatal(err)
	}
	if mc.lists("n1", a, "n0") {
		t.Fatalf("n1 still lists n0 for %s after the late removal", a)
	}
	n0.goneDelivered(ctx, "n1", urls, mark)
	if !mc.lists("n1", a, "n0") {
		t.Fatalf("n1 does not list n0 for %s, which n0 stores", a)
	}
	if got := pendingSnapshot(n0)["n1"]; len(got) != 0 {
		t.Fatalf("pending at n1 = %v, want none", got)
	}
}

// TestReconcileLoopFlushesPendingGone: in a live cluster started with a
// reconcile period, a pending entry reaches its beacon although the
// evicting node sends that beacon no later /register.
func TestReconcileLoopFlushesPendingGone(t *testing.T) {
	lc := startCluster(t, 3, 3, ClusterConfig{CapacityBytes: 1200, ReconcileInterval: 20 * time.Millisecond})
	holder, beacon, other := "live-00", "live-01", "live-02"
	var x, y string
	for _, d := range testCatalog(200) {
		switch owner, _ := lc.Caches[holder].AssignmentsView().ownerOf(d.URL, lc.Cfg.IntraGen); {
		case owner == beacon && x == "":
			x = d.URL
		case owner == other && y == "":
			y = d.URL
		}
	}
	client := &http.Client{Timeout: 5 * time.Second}
	getDoc(t, client, lc.Cfg.Addrs[holder], x)
	if !recordLists(lc.Caches[beacon], x, holder) {
		t.Fatalf("%s does not list %s for %s after the store", beacon, holder, x)
	}
	getDoc(t, client, lc.Cfg.Addrs[holder], y) // evicts x; registers only at other
	for deadline := time.Now().Add(10 * time.Second); recordLists(lc.Caches[beacon], x, holder); {
		if time.Now().After(deadline) {
			t.Fatalf("%s still lists %s for %s; pending %v", beacon, holder, x, pendingSnapshot(lc.Caches[holder]))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReconcileFlushesPendingGone: the reconcile pass contacts a beacon
// with pending entries even when the node stores nothing it covers.
func TestReconcileFlushesPendingGone(t *testing.T) {
	mc := newMemCluster(t, 1)
	a := mc.docOwnedBy(t, "n1", 0)
	b := mc.docOwnedBy(t, "n2", 0)

	mc.get(t, "n0", a)
	mc.get(t, "n0", b) // n0 now stores only b, whose beacon is n2
	mc.caches["n0"].Reconcile(context.Background())
	if got := mc.net.count("n1", "/reconcile"); got != 1 {
		t.Fatalf("%d /reconcile calls to n1, want 1", got)
	}
	if mc.lists("n1", a, "n0") {
		t.Fatalf("n1 still lists n0 for %s after the reconcile", a)
	}
	if got := pendingSnapshot(mc.caches["n0"]); len(got) != 0 {
		t.Fatalf("pending = %v after the reconcile, want none", got)
	}
}

// TestInstallRekeysPendingGone: an assignment install moves pending
// entries to the URL's new beacon, which receives them on the next call.
func TestInstallRekeysPendingGone(t *testing.T) {
	mc := newMemCluster(t, 1)
	a := mc.docOwnedBy(t, "n1", 0)
	b := mc.docOwnedBy(t, "n2", 0)

	mc.get(t, "n0", a)
	mc.get(t, "n0", b) // evicts a: pending at n1
	// n2 takes over the whole ring. n1 hands its records (n0 still listed
	// for a) to n2 on its install.
	next := Assignments{Rings: [][]Subrange{{{Node: "n0", Lo: 0, Hi: -1}, {Node: "n1", Lo: 0, Hi: -1}, {Node: "n2", Lo: 0, Hi: 99}}}}
	for _, n := range []string{"n1", "n2", "n0"} {
		if err := mc.net.PostJSON(context.Background(), mc.cfg.Addrs[n]+"/subranges", next, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !mc.lists("n2", a, "n0") {
		t.Fatalf("n2 did not inherit n0 as a holder of %s", a)
	}
	if got := pendingSnapshot(mc.caches["n0"]); !slices.Equal(got["n2"], []string{a}) || len(got) != 1 {
		t.Fatalf("pending = %v after the install, want only n2: [%s]", got, a)
	}
	mc.caches["n0"].Reconcile(context.Background())
	if mc.lists("n2", a, "n0") {
		t.Fatalf("n2 still lists n0 for %s after the flush", a)
	}
	if !mc.lists("n2", b, "n0") {
		t.Fatalf("n2 does not list n0 for %s, which it stores", b)
	}
}

// TestStaleHolderFallsThrough: a lookup that names a holder whose copy
// was evicted still serves the document, from the next holder when
// there is one and from the origin otherwise.
func TestStaleHolderFallsThrough(t *testing.T) {
	for _, tc := range []struct {
		name       string
		liveHolder bool
		source     string
	}{
		{"next holder", true, "peer"},
		{"origin", false, "origin"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := newMemCluster(t, 1)
			a := mc.docOwnedBy(t, "n1", 0)
			b := mc.docOwnedBy(t, "n2", 0)
			mc.get(t, "n0", a)
			mc.get(t, "n0", b) // evicts a; n1 still lists n0
			if tc.liveHolder {
				mc.get(t, "n2", a) // n2 stores a from the origin (n0 answers 404)
				mc.get(t, "n2", b) // n2 evicts a too
				mc.get(t, "n1", a) // n1 stores a: holders n0, n1, n2
			}
			fetches := mc.net.count("n0", "/fetch")
			dr := mc.get(t, "n2", a)
			if dr.Source != tc.source || dr.Doc.URL != a {
				t.Fatalf("served %q from %q, want %q from %q", dr.Doc.URL, dr.Source, a, tc.source)
			}
			if got := mc.net.count("n0", "/fetch") - fetches; got != 1 {
				t.Fatalf("%d /fetch calls to the stale holder n0, want 1", got)
			}
		})
	}
}

// TestHolderReportValidation: /register and /reconcile reject an empty
// holder name, an empty URL and an empty gone or entry URL, and change
// no record when they do.
func TestHolderReportValidation(t *testing.T) {
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/register", `{}`, http.StatusBadRequest},
		{"/register", `{"url":"u1"}`, http.StatusBadRequest},
		{"/register", `{"node":"n1"}`, http.StatusBadRequest},
		{"/register", `{"url":"u1","node":"n1","gone":[""]}`, http.StatusBadRequest},
		{"/register", `{"url":"u1","node":"n1","gone":["u2"]}`, http.StatusOK},
		{"/reconcile", `{"entries":[{"url":"u1","version":1}]}`, http.StatusBadRequest},
		{"/reconcile", `{"node":"n1","entries":[{"url":"","version":1}]}`, http.StatusBadRequest},
		{"/reconcile", `{"node":"n1","gone":[""]}`, http.StatusBadRequest},
		{"/reconcile", `{"node":"n1","gone":["u2"]}`, http.StatusOK},
	} {
		n := newOfflineNode(t)
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("POST %s %s: status %d, want %d", tc.path, tc.body, rec.Code, tc.status)
		}
		for _, wr := range n.Records() {
			if wr.URL == "" || slices.Contains(wr.Holders, "") {
				t.Errorf("POST %s %s: record %+v has an empty key or holder", tc.path, tc.body, wr)
			}
		}
		if tc.status != http.StatusOK && len(n.Records()) != 0 {
			t.Errorf("POST %s %s: rejected report changed records: %+v", tc.path, tc.body, n.Records())
		}
	}
}
