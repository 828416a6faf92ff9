package node

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cachecloud/internal/admit"
	"cachecloud/internal/cache"
	"cachecloud/internal/document"
	"cachecloud/internal/durable"
	"cachecloud/internal/loadstats"
	"cachecloud/internal/obs"
	"cachecloud/internal/placement"
	"cachecloud/internal/tenant"
)

var errNotFound = errors.New("node: not found")

// nodeRecord is a beacon-side lookup record held by a live node. It is a
// single allocation plus its holder list: the monitors are stored inline
// and the holders — one to a few per document — as a sorted slice.
type nodeRecord struct {
	holders holderSet
	version document.Version
	lookups loadstats.EWRate
	updates loadstats.EWRate
}

func newNodeRecord() *nodeRecord {
	return &nodeRecord{
		lookups: *loadstats.NewEWRate(60),
		updates: *loadstats.NewEWRate(60),
	}
}

// holderSet is a record's holder names, kept sorted and duplicate-free so
// every copy handed out is already in deterministic order.
type holderSet []string

// add inserts h; adding a present holder is a no-op.
func (s *holderSet) add(h string) {
	if i, found := slices.BinarySearch(*s, h); !found {
		*s = slices.Insert(*s, i, h)
	}
}

// remove deletes h; removing an absent holder is a no-op.
func (s *holderSet) remove(h string) {
	if i, found := slices.BinarySearch(*s, h); found {
		*s = slices.Delete(*s, i, i+1)
	}
}

// list returns a sorted copy of the holders, nil when there are none.
func (s holderSet) list() []string {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// CacheNode is one live edge cache plus its beacon-point duties.
type CacheNode struct {
	name         string
	cfg          ClusterConfig
	store        *cache.Cache
	policy       placement.Policy
	tp           Transport
	clock        Clock
	start        time.Time
	snapshotPath string

	mu       sync.Mutex
	assign   Assignments
	records  map[string]*nodeRecord
	replicas map[string]WireRecord // sibling's records, lazily replicated

	// assignView is the lock-free snapshot of assign, republished on every
	// install (the node-layer mirror of the core's epoch pointer). Paths
	// that only resolve beacon ownership — request routing, placement
	// re-evaluation, metrics gauges — read it without touching n.mu, so an
	// install or a long record hand-off never stalls them. An Assignments
	// value is immutable once published: installs replace the whole value.
	assignView  atomic.Pointer[Assignments]
	replicaFrom map[string]string // url → sibling that pushed the replica
	down        map[string]bool   // peers the origin declared dead
	// loads[ring] is a dense per-IrH-value load counter for ranges this
	// node owns in that ring (it only ever has entries for its own ring,
	// but indexing by ring keeps the wire format uniform).
	loads  map[int][]int64
	hbSeq  int64
	tracer *obs.Tracer

	// Lazy deregistration (see queueGone): per beacon, the evicted URLs
	// the beacon still lists this node for, each tagged with the goneSeq
	// value of its queueing so a flush clears only what it delivered.
	goneMu  sync.Mutex
	gone    map[string]map[string]uint64
	goneSeq uint64

	// Operational metrics live in the obs registry: counters are atomic
	// (no n.mu needed to bump them) and /metrics renders the registry
	// without holding n.mu across the response write.
	reg         *obs.Registry
	localHits   *obs.Counter
	peerHits    *obs.Counter
	originMZ    *obs.Counter
	beaconOps   *obs.Counter
	failedOver  *obs.Counter // lookups answered by the ring sibling after a beacon failure
	degraded    *obs.Counter // requests that fell through to the origin with no beacon
	circuitOpen *obs.Counter
	reqMs       *obs.Histogram // client /doc handling latency
	lookupMs    *obs.Histogram // beacon lookup round trip
	fetchMs     *obs.Histogram // peer/origin document retrieval

	// Overload-resilience layer (see admission.go): the weighted
	// class-priority admission gate, the adaptive origin-fetch limiter,
	// and the miss-storm coalescer, plus the conservation counters
	// (Requests == Served + Shed + Failed at quiescent points).
	gate          *admit.Gate
	limiter       *admit.Limiter
	flights       *admit.Coalescer[flightKey, document.Document]
	docRequests   *obs.Counter
	docServed     *obs.Counter
	docShed       *obs.Counter
	docFailed     *obs.Counter
	originFetches *obs.Counter // actual origin wire fetches, post-coalescing
	coalescedMiss *obs.Counter // misses that joined an in-flight fetch
	shedByClass   [admit.NumClasses]*obs.Counter

	// Multi-tenant layer (see tenancy.go): all nil when cfg.Tenants is
	// empty — the single-tenant request path is untouched.
	tenants      *tenant.Registry
	fair         *tenant.FairShare
	tenantCounts *tenantCounters

	// Shield tier (two-tier mode; see shieldnode.go). A nil router means
	// single-tier: upstream fetches go straight to the origin. degradedURLs
	// tracks copies fetched directly from the origin while every shield was
	// unreachable — such copies carry no shield subscription, so no publish
	// can refresh them until the next reconcile pass re-attaches them.
	shieldRouter   *ShieldRouter
	degradedURLs   map[string]bool // guarded by mu
	shieldFetches  *obs.Counter
	shieldHits     *obs.Counter
	shieldFailover *obs.Counter
	shieldDegraded *obs.Counter

	// Durable tier (see durable.go): nil for memory-only nodes. warmBoot
	// and warmRecovered are set once at construction; the revalidation
	// counters advance when WarmRevalidate runs.
	durable         *durable.Store
	warmBoot        bool
	warmRecovered   int
	warmRevalidated atomic.Int64
	warmDropped     atomic.Int64
}

// NewCacheNode constructs a live cache node. The node starts with the equal
// initial sub-range split; the origin installs rebalanced assignments
// later.
func NewCacheNode(name string, cfg ClusterConfig) (*CacheNode, error) {
	if _, ok := cfg.Addrs[name]; !ok {
		return nil, fmt.Errorf("node: %q missing from cluster addresses", name)
	}
	if cfg.IntraGen <= 0 {
		return nil, fmt.Errorf("node: IntraGen must be positive")
	}
	var pol placement.Policy = placement.AdHoc{}
	if cfg.UtilityPlacement {
		u, err := placement.NewUtility(placement.EqualOn(true, true, true, cfg.CapacityBytes > 0), 0.5)
		if err != nil {
			return nil, err
		}
		pol = u
	}
	clock := clockOrReal(cfg.Clock)
	n := &CacheNode{
		name:         name,
		cfg:          cfg,
		store:        cache.New(name, cfg.CapacityBytes),
		policy:       pol,
		clock:        clock,
		start:        clock.Now(),
		assign:       equalSplit(cfg),
		records:      make(map[string]*nodeRecord),
		replicas:     make(map[string]WireRecord),
		replicaFrom:  make(map[string]string),
		down:         make(map[string]bool),
		loads:        make(map[int][]int64),
		gone:         make(map[string]map[string]uint64),
		degradedURLs: make(map[string]bool),
	}
	router, err := NewShieldRouter(cfg)
	if err != nil {
		return nil, err
	}
	n.shieldRouter = router
	n.tracer = cfg.Tracer
	n.publishAssign()
	n.initAdmission()
	// Tenancy precedes the durable warm boot so replayed entries land
	// under their tenants' byte quotas.
	if err := n.initTenancy(); err != nil {
		return nil, err
	}
	n.initMetrics()
	if err := n.initDurable(); err != nil {
		return nil, err
	}
	n.tp = NewHTTPTransport(TransportOptions{OnBreakerOpen: n.noteCircuitOpen, Clock: clock})
	return n, nil
}

// initMetrics builds the node's metrics registry: counters for the
// protocol outcomes, gauge callbacks over live state, and latency
// histograms with quantile-ready buckets.
func (n *CacheNode) initMetrics() {
	reg := obs.NewRegistry("cachecloud_node", map[string]string{"node": n.name})
	n.reg = reg
	n.localHits = reg.Counter("local_hits_total")
	n.peerHits = reg.Counter("peer_hits_total")
	n.originMZ = reg.Counter("origin_miss_total")
	n.beaconOps = reg.Counter("beacon_ops_total")
	n.failedOver = reg.Counter("failed_over_total")
	n.degraded = reg.Counter("degraded_total")
	n.circuitOpen = reg.Counter("circuit_open_total")
	n.shieldFetches = reg.Counter("shield_fetch_total")
	n.shieldHits = reg.Counter("shield_hit_total")
	n.shieldFailover = reg.Counter("shield_failover_total")
	n.shieldDegraded = reg.Counter("shield_degraded_total")
	bounds := obs.DefaultLatencyBounds()
	n.reqMs = reg.Histogram("request_ms", bounds)
	n.lookupMs = reg.Histogram("lookup_ms", bounds)
	n.fetchMs = reg.Histogram("fetch_ms", bounds)
	reg.GaugeFunc("stored_documents", func() float64 { return float64(n.store.Len()) })
	reg.GaugeFunc("stored_bytes", func() float64 { return float64(n.store.Used()) })
	reg.GaugeFunc("capacity_bytes", func() float64 { return float64(n.store.Capacity()) })
	reg.GaugeFunc("uptime_seconds", func() float64 { return float64(n.now()) })
	reg.GaugeFunc("lookup_records", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.records))
	})
	reg.GaugeFunc("replica_records", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.replicas))
	})
	reg.GaugeFunc("ring_count", func() float64 {
		return float64(len(n.assignSnapshot().Rings))
	})
	reg.GaugeFunc("owned_subrange_len", func() float64 {
		return float64(ownedSubrangeLen(n.assignSnapshot(), n.name))
	})
	reg.GaugeFunc("down_peers", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.down))
	})
	reg.GaugeFunc("heartbeats_sent", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(n.hbSeq)
	})
	n.initAdmissionMetrics(reg)
}

// Metrics exposes the node's metrics registry.
func (n *CacheNode) Metrics() *obs.Registry { return n.reg }

// SetTracer attaches a protocol-event tracer; the node emits
// EvFailedOver and EvCircuitOpen.
func (n *CacheNode) SetTracer(t *obs.Tracer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracer = t
}

// Tracer returns the attached tracer (nil when tracing is off).
func (n *CacheNode) Tracer() *obs.Tracer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tracer
}

// noteCircuitOpen is the transport's breaker-open callback.
func (n *CacheNode) noteCircuitOpen(host string) {
	n.circuitOpen.Inc()
	if tr := n.Tracer(); tr != nil {
		tr.Emit(obs.Event{Time: n.now(), Kind: obs.EvCircuitOpen, Node: host})
	}
}

// NewCacheNodeWithTransport constructs a cache node whose outbound calls
// go through the given transport (tests inject the chaos transport here).
func NewCacheNodeWithTransport(name string, cfg ClusterConfig, tp Transport) (*CacheNode, error) {
	n, err := NewCacheNode(name, cfg)
	if err != nil {
		return nil, err
	}
	if tp != nil {
		n.tp = tp
	}
	return n, nil
}

// Name returns the node name.
func (n *CacheNode) Name() string { return n.name }

// now returns elapsed seconds since node start — the live clock for rate
// monitors (1 live time unit = 1 second).
func (n *CacheNode) now() int64 { return int64(n.clock.Since(n.start) / time.Second) }

// msSince returns the elapsed time since t0 on the node's clock in
// milliseconds (histogram observations).
func (n *CacheNode) msSince(t0 time.Time) float64 {
	return float64(n.clock.Since(t0)) / float64(time.Millisecond)
}

// Handler returns the node's HTTP handler.
func (n *CacheNode) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /doc", n.handleDoc)
	mux.HandleFunc("GET /lookup", n.handleLookup)
	mux.HandleFunc("POST /register", n.handleRegister)
	mux.HandleFunc("GET /fetch", n.handleFetch)
	mux.HandleFunc("POST /update", n.handleUpdate)
	mux.HandleFunc("POST /apply", n.handleApply)
	mux.HandleFunc("POST /purge", n.handlePurge)
	mux.HandleFunc("POST /drop", n.handleDrop)
	mux.HandleFunc("POST /subranges", n.handleSubranges)
	mux.HandleFunc("POST /records/import", n.handleRecordsImport)
	mux.HandleFunc("POST /records/replica", n.handleRecordsReplica)
	mux.HandleFunc("POST /replicate", n.handleReplicate)
	mux.HandleFunc("POST /reconcile", n.handleReconcile)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.HandleFunc("GET /subranges", n.handleGetSubranges)
	mux.HandleFunc("POST /loads/collect", n.handleLoadsCollect)
	mux.HandleFunc("POST /membership", n.handleMembership)
	mux.HandleFunc("GET /stats", n.handleStats)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("POST /snapshot/save", n.handleSnapshotSave)
	return mux
}

// publishAssign republishes the lock-free assignment snapshot. The caller
// holds n.mu (or, in the constructor, has exclusive access).
func (n *CacheNode) publishAssign() {
	a := n.assign
	n.assignView.Store(&a)
}

// assignSnapshot returns the current assignment view without taking n.mu.
func (n *CacheNode) assignSnapshot() *Assignments {
	return n.assignView.Load()
}

// beaconURL resolves the beacon node's base URL for a document.
func (n *CacheNode) beaconURL(url string) (name, base string, err error) {
	owner, err := n.assignSnapshot().ownerOf(url, n.cfg.IntraGen)
	if err != nil {
		return "", "", err
	}
	base, ok := n.cfg.Addrs[owner]
	if !ok {
		return "", "", fmt.Errorf("node: no address for beacon %q", owner)
	}
	return owner, base, nil
}

// siblingOf returns another live member of the beacon's ring — the node
// that holds the lazy replica of the beacon's lookup records and can
// answer lookups while the beacon is unreachable.
func (n *CacheNode) siblingOf(beaconName string) (name, base string, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ringIdx := n.assign.ringOf(beaconName)
	if ringIdx < 0 {
		// The beacon may already have been removed from the assignment;
		// fall back to its configured ring.
		for r, members := range n.cfg.Rings {
			for _, m := range members {
				if m == beaconName {
					ringIdx = r
				}
			}
		}
	}
	if ringIdx < 0 || ringIdx >= len(n.assign.Rings) {
		return "", "", false
	}
	for _, sub := range n.assign.Rings[ringIdx] {
		if sub.Node == beaconName || n.down[sub.Node] {
			continue
		}
		if base, have := n.cfg.Addrs[sub.Node]; have {
			return sub.Node, base, true
		}
	}
	return "", "", false
}

// isDown reports whether the origin has declared the peer dead.
func (n *CacheNode) isDown(peer string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[peer]
}

// chargeBeaconLoad records one beacon operation on the IrH value.
func (n *CacheNode) chargeBeaconLoad(url string) {
	h := document.HashURL(url)
	ringIdx := h.RingIndex(len(n.assign.Rings))
	irh := h.IrH(n.cfg.IntraGen)
	n.beaconOps.Inc()
	dense := n.loads[ringIdx]
	if dense == nil {
		dense = make([]int64, n.cfg.IntraGen)
		n.loads[ringIdx] = dense
	}
	if irh >= 0 && irh < len(dense) {
		dense[irh]++
	}
}

// handleDoc is the client entry point: local hit, else cooperate. Every
// request passes the admission gate under its work class — hits under
// the cheap hit class, cooperation under the lookup class, origin
// fetches under the miss class — so a miss storm can never starve hit
// serving. Each request increments docRequests and then exactly one of
// docServed, docShed, or docFailed (the conservation invariant).
func (n *CacheNode) handleDoc(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	if url == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing url"))
		return
	}
	tid, terr := tenantFromRequest(r)
	if terr != nil {
		writeErr(w, http.StatusBadRequest, terr)
		return
	}
	n.docRequests.Inc()
	n.tenantCounts.request(tid)
	// The weighted fair share is charged for the whole request: one unit
	// per in-flight /doc per tenant, shed immediately at the share so an
	// aggressor tenant saturates only its own slice of MaxInflight.
	fairRelease, ok := n.tenantAcquire(tid)
	if !ok {
		n.refuseTenantShed(w, tid, url)
		return
	}
	defer fairRelease()
	// All storage, routing, and cooperation below run on the
	// tenant-folded key: each tenant's copies and lookup records live in
	// a disjoint key space.
	url = document.TenantKey(tid, url)
	t0 := n.clock.Now()
	defer func() { n.reqMs.Observe(n.msSince(t0)) }()
	ctx, cancel := requestContext(r)
	defer cancel()
	ctx = withoutTenant(ctx)
	now := n.now()
	if cp, ok := n.store.Get(url, now); ok {
		release, err := n.gate.Acquire(ctx, admit.Hit)
		if err != nil {
			n.refuseDoc(w, tid, url, admit.Hit, err)
			return
		}
		defer release()
		n.localHits.Inc()
		n.docServed.Inc()
		n.tenantCounts.served(tid)
		writeJSON(w, http.StatusOK, DocResponse{Doc: cp.Doc, Source: "local", Stored: true})
		return
	}

	// Miss: the beacon lookup and peer retrieval run under one
	// lookup-class admission; it is released before any origin fetch so
	// slow origin work is charged to the miss class alone.
	lookupRelease, err := n.gate.Acquire(ctx, admit.Lookup)
	if err != nil {
		n.refuseDoc(w, tid, url, admit.Lookup, err)
		return
	}
	defer lookupRelease()

	// Ask the document's beacon point for holders.
	beaconName, beaconBase, err := n.beaconURL(url)
	if err != nil {
		n.docFailed.Inc()
		n.tenantCounts.failed(tid)
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	var lr LookupResponse
	lookupOK := false
	tLookup := n.clock.Now()
	if beaconName == n.name {
		lr = n.localLookup(url)
		lookupOK = true
	} else if !n.isDown(beaconName) {
		if err := n.tp.GetJSON(ctx, beaconBase+"/lookup?url="+queryEscape(url), &lr); err == nil {
			lookupOK = true
		}
	}

	// Beacon unreachable: its ring sibling holds the lazy replica of the
	// lookup records, so retry there before giving up on cooperation.
	failedOver := false
	deadBeacon := beaconName
	if !lookupOK {
		if sibName, sibBase, ok := n.siblingOf(beaconName); ok {
			if sibName == n.name {
				lr = n.localLookup(url)
				lookupOK = true
			} else if err := n.tp.GetJSON(ctx, sibBase+"/lookup?url="+queryEscape(url), &lr); err == nil {
				lookupOK = true
			}
			if lookupOK {
				failedOver = true
				beaconName, beaconBase = sibName, sibBase
			}
		}
	}
	if lookupOK {
		n.lookupMs.Observe(n.msSince(tLookup))
	}

	// No beacon at all: degrade to a direct origin fetch so the client
	// request still completes. The fetch runs under full miss-class
	// controls (coalescing, gate, adaptive limiter).
	if !lookupOK {
		lookupRelease()
		doc, err := n.originFetch(ctx, url, 0)
		if err != nil {
			n.refuseDoc(w, tid, url, admit.Miss, err)
			return
		}
		n.originMZ.Inc()
		n.degraded.Inc()
		stored := n.place(ctx, doc, "", "", LookupResponse{}, now)
		n.docServed.Inc()
		n.tenantCounts.served(tid)
		writeJSON(w, http.StatusOK, DocResponse{Doc: doc, Source: "origin", Stored: stored, Degraded: true})
		return
	}
	if failedOver {
		n.failedOver.Inc()
		if tr := n.Tracer(); tr != nil {
			tr.Emit(obs.Event{Time: now, Kind: obs.EvFailedOver, Node: deadBeacon, URL: url})
		}
	}

	tFetch := n.clock.Now()
	doc, source, ok := n.peerRetrieve(ctx, url, lr)
	lookupRelease()
	if !ok {
		doc, err = n.originFetch(ctx, url, lr.Version)
		if err != nil {
			n.refuseDoc(w, tid, url, admit.Miss, err)
			return
		}
		n.originMZ.Inc()
		source = "origin"
	}
	n.fetchMs.Observe(n.msSince(tFetch))
	stored := n.place(ctx, doc, beaconName, beaconBase, lr, now)
	n.docServed.Inc()
	n.tenantCounts.served(tid)
	writeJSON(w, http.StatusOK, DocResponse{Doc: doc, Source: source, Stored: stored, FailedOver: failedOver})
}

// msSince returns the elapsed wall time since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// peerRetrieve tries to fetch the document from a sibling holder.
// Holders the origin has declared dead are skipped without a network
// call; a holder that sheds (429), is unreachable, or lacks the copy is
// skipped for the next one. ok=false means the caller must fall back to
// the origin (via originFetch, under the miss-class controls).
func (n *CacheNode) peerRetrieve(ctx context.Context, url string, lr LookupResponse) (doc document.Document, source string, ok bool) {
	for _, h := range lr.Holders {
		if h == n.name || n.isDown(h) {
			continue
		}
		base, have := n.cfg.Addrs[h]
		if !have {
			continue
		}
		var fr FetchResponse
		if err := n.tp.GetJSON(ctx, base+"/fetch?url="+queryEscape(url), &fr); err == nil {
			n.peerHits.Inc()
			return fr.Doc, "peer", true
		}
		// Shed, not-found, or unreachable: try the next holder.
	}
	return document.Document{}, "", false
}

// place runs the placement decision and registers the copy when stored.
// An empty beaconBase skips registration (fully degraded path: no beacon
// is reachable, so the copy stays unregistered until the next lookup).
// The copies the store evicted to make room are queued as lazy
// deregistrations first, so those owed to this copy's beacon ride on its
// /register.
func (n *CacheNode) place(ctx context.Context, doc document.Document, beaconName, beaconBase string, lr LookupResponse, now int64) bool {
	pctx := placement.Context{
		Now: now, CacheID: n.name, DocURL: doc.URL, DocSize: doc.Size,
		IsBeacon:        beaconName == n.name,
		LocalAccessRate: n.store.AccessRate(doc.URL, now),
		MeanLocalRate:   n.store.MeanAccessRate(now),
		CloudLookupRate: lr.LookupRate,
		CloudUpdateRate: lr.UpdateRate,
		ReplicaCount:    len(lr.Holders),
		Residence:       placement.ExpectedResidence(n.store.Capacity(), n.store.EvictionByteRate(now)),
	}
	if !n.policy.ShouldStore(pctx).Store {
		return false
	}
	evicted, err := n.store.Put(document.Copy{Doc: doc, FetchedAt: now}, now)
	if err != nil {
		return false
	}
	n.cancelGone(doc.URL)
	for _, dead := range evicted {
		n.deregister(dead.URL)
	}
	n.register(ctx, doc.URL, beaconName, beaconBase)
	return true
}

// register lists this node as a holder of url at its beacon. A remote
// /register also delivers the lazy deregistrations pending for that
// beacon; they are cleared only once the call succeeds.
func (n *CacheNode) register(ctx context.Context, url, beaconName, beaconBase string) {
	if beaconName == n.name {
		n.localRegister(url, n.name)
		return
	}
	if beaconBase == "" {
		return
	}
	gone, mark := n.pendingGone(beaconName)
	err := n.tp.PostJSON(ctx, beaconBase+"/register", RegisterRequest{URL: url, Node: n.name, Gone: gone}, nil)
	if err == nil {
		n.goneDelivered(ctx, beaconName, gone, mark)
	}
}

// deregister drops this node from an evicted URL's beacon record: at once
// when the beacon is this node, lazily otherwise. A beacon the origin
// declared dead is skipped; its records are rebuilt without this copy.
func (n *CacheNode) deregister(url string) {
	beacon, err := n.assignSnapshot().ownerOf(url, n.cfg.IntraGen)
	if err != nil {
		return
	}
	if beacon == n.name {
		n.localDeregister(url, n.name)
		return
	}
	if n.isDown(beacon) {
		return
	}
	n.queueGone(beacon, url)
}

// --- lazy deregistration ---
//
// An evicted copy costs no RPC of its own. Its URL waits in the pending
// set of its beacon until the next /register or /reconcile this node
// sends there, which carries the set in Gone. Meanwhile the beacon lists
// a holder without the copy: a requester's /fetch gets a 404 and moves
// on to the next holder or the origin, and an /update's /apply answers
// held:false, which prunes the holder. The reconcile pass contacts every
// beacon with pending entries, so where StartReconcile runs, its period
// bounds how long an entry waits; without it the wait lasts until the
// next /register to that beacon. The sets live in memory only and a
// restart loses them.

// queueGone adds url to beacon's pending set.
func (n *CacheNode) queueGone(beacon, url string) {
	n.goneMu.Lock()
	defer n.goneMu.Unlock()
	n.goneSeq++
	n.putGoneLocked(beacon, url, n.goneSeq)
}

func (n *CacheNode) putGoneLocked(beacon, url string, seq uint64) {
	set := n.gone[beacon]
	if set == nil {
		set = make(map[string]uint64)
		n.gone[beacon] = set
	}
	set[url] = seq
}

// cancelGone drops any pending entry for url: the node stores the URL
// again, so a beacon still listing it is right.
func (n *CacheNode) cancelGone(url string) {
	n.goneMu.Lock()
	defer n.goneMu.Unlock()
	for beacon, set := range n.gone {
		delete(set, url)
		if len(set) == 0 {
			delete(n.gone, beacon)
		}
	}
}

// pendingGone returns beacon's pending URLs, sorted, and the sequence
// mark that clearGone needs to tell them from entries queued later.
func (n *CacheNode) pendingGone(beacon string) (urls []string, mark uint64) {
	n.goneMu.Lock()
	defer n.goneMu.Unlock()
	set := n.gone[beacon]
	if len(set) == 0 {
		return nil, n.goneSeq
	}
	urls = make([]string, 0, len(set))
	for url := range set {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	return urls, n.goneSeq
}

// clearGone removes the delivered entries of beacon's pending set. An
// entry cancelled and queued again since pendingGone has a sequence
// number above mark and stays.
func (n *CacheNode) clearGone(beacon string, urls []string, mark uint64) {
	if len(urls) == 0 {
		return
	}
	n.goneMu.Lock()
	defer n.goneMu.Unlock()
	set := n.gone[beacon]
	for _, url := range urls {
		if seq, ok := set[url]; ok && seq <= mark {
			delete(set, url)
		}
	}
	if len(set) == 0 {
		delete(n.gone, beacon)
	}
}

// goneDelivered settles a successful flush to beacon: it clears the
// delivered entries, then registers again each delivered URL the store
// holds. Such a URL was stored anew while the flush was in flight; the
// re-store cancelled its entry and sent its own /register, which may have
// reached the beacon before this flush's removal did.
func (n *CacheNode) goneDelivered(ctx context.Context, beacon string, urls []string, mark uint64) {
	n.clearGone(beacon, urls, mark)
	for _, url := range urls {
		if !n.store.Has(url) {
			continue
		}
		if name, base, err := n.beaconURL(url); err == nil {
			n.register(ctx, url, name, base)
		}
	}
}

// rekeyGone moves every pending entry to its beacon under the assignment
// a, after an install. Entries that now fall on this node are applied to
// the local record at once.
func (n *CacheNode) rekeyGone(a Assignments) {
	var local []string
	n.goneMu.Lock()
	old := n.gone
	n.gone = make(map[string]map[string]uint64, len(old))
	for beacon, set := range old {
		for url, seq := range set {
			owner, err := a.ownerOf(url, n.cfg.IntraGen)
			if err != nil {
				owner = beacon
			}
			if owner == n.name {
				local = append(local, url)
				continue
			}
			n.putGoneLocked(owner, url, seq)
		}
	}
	n.goneMu.Unlock()
	for _, url := range local {
		n.localDeregister(url, n.name)
	}
}

// goneBeacons returns the beacons with pending entries, sorted.
func (n *CacheNode) goneBeacons() []string {
	n.goneMu.Lock()
	defer n.goneMu.Unlock()
	beacons := make([]string, 0, len(n.gone))
	for beacon := range n.gone {
		beacons = append(beacons, beacon)
	}
	sort.Strings(beacons)
	return beacons
}

// --- beacon duties ---

func (n *CacheNode) localLookup(url string) LookupResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	rec, ok := n.records[url]
	if !ok {
		// No owned record. When a sibling fails over a lookup to this node
		// for a range it does not own, answer from the lazy replica without
		// taking ownership — promotion happens on /subranges installs.
		owner, err := n.assign.ownerOf(url, n.cfg.IntraGen)
		if err != nil || owner != n.name {
			if wr, have := n.replicas[url]; have {
				out := LookupResponse{Version: wr.Version}
				for _, h := range wr.Holders {
					if !n.down[h] {
						out.Holders = append(out.Holders, h)
					}
				}
				sort.Strings(out.Holders)
				return out
			}
			return LookupResponse{}
		}
		rec = newNodeRecord()
		n.records[url] = rec
	}
	n.chargeBeaconLoad(url)
	now := n.now()
	rec.lookups.Observe(now, 1)
	return LookupResponse{
		Version:    rec.version,
		Holders:    rec.holders.list(),
		LookupRate: rec.lookups.Rate(now),
		UpdateRate: rec.updates.Rate(now),
	}
}

func (n *CacheNode) handleLookup(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	if url == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing url"))
		return
	}
	// Peer calls pass already-scoped keys with no header; a direct client
	// lookup carries the tenant header and gets its URL folded here.
	url, terr := foldTenantParam(r, url)
	if terr != nil {
		writeErr(w, http.StatusBadRequest, terr)
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	release, err := n.gate.Acquire(ctx, admit.Lookup)
	if err != nil {
		n.refuseServe(w, url, admit.Lookup, err)
		return
	}
	defer release()
	writeJSON(w, http.StatusOK, n.localLookup(url))
}

func (n *CacheNode) localRegister(url, holder string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if owner, err := n.assign.ownerOf(url, n.cfg.IntraGen); err == nil && owner != n.name {
		// Beacon duty fell here via failover: track the holder on the lazy
		// replica instead of minting an owned record for a range this node
		// does not cover. A spurious owned record would be replicated back
		// to the true owner and later mis-counted as a crash recovery when
		// an install promotes it. The replica is attributed to the real
		// owner so its next full snapshot push supersedes this entry.
		wr := n.replicas[url]
		wr.URL = url
		for _, h := range wr.Holders {
			if h == holder {
				n.replicas[url] = wr
				return
			}
		}
		wr.Holders = append(wr.Holders, holder)
		n.replicas[url] = wr
		n.replicaFrom[url] = owner
		return
	}
	rec, ok := n.records[url]
	if !ok {
		rec = newNodeRecord()
		n.records[url] = rec
	}
	rec.holders.add(holder)
}

func (n *CacheNode) localDeregister(url, holder string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if owner, err := n.assign.ownerOf(url, n.cfg.IntraGen); err == nil && owner != n.name {
		if wr, ok := n.replicas[url]; ok {
			kept := wr.Holders[:0]
			for _, h := range wr.Holders {
				if h != holder {
					kept = append(kept, h)
				}
			}
			wr.Holders = kept
			n.replicas[url] = wr
		}
		return
	}
	if rec, ok := n.records[url]; ok {
		rec.holders.remove(holder)
	}
}

// handleRegister drops the holder from the URLs it reports gone, then
// adds it to the registered URL.
func (n *CacheNode) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := checkHolderReport(req.Node, req.Gone); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.URL == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing url"))
		return
	}
	for _, url := range req.Gone {
		n.localDeregister(url, req.Node)
	}
	n.localRegister(req.URL, req.Node)
	writeJSON(w, http.StatusOK, struct{}{})
}

// checkHolderReport rejects a holder report with no holder name or an
// empty gone URL, which would otherwise become records keyed "" or
// holders named "".
func checkHolderReport(node string, gone []string) error {
	if node == "" {
		return errors.New("missing node")
	}
	if slices.Contains(gone, "") {
		return errors.New("empty url in gone")
	}
	return nil
}

// handleFetch serves a held copy to a sibling. Serving an existing copy
// is hit-class work: cheap, and prioritised over miss-class admissions
// so an overloaded holder still relieves its peers.
func (n *CacheNode) handleFetch(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	url, terr := foldTenantParam(r, url)
	if terr != nil {
		writeErr(w, http.StatusBadRequest, terr)
		return
	}
	ctx, cancel := requestContext(r)
	defer cancel()
	release, err := n.gate.Acquire(ctx, admit.Hit)
	if err != nil {
		n.refuseServe(w, url, admit.Hit, err)
		return
	}
	defer release()
	cp, ok := n.store.Peek(url)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no copy of %q", url))
		return
	}
	writeJSON(w, http.StatusOK, FetchResponse{Doc: cp.Doc})
}

// handleUpdate is the beacon receiving an origin update: record load,
// refresh the record, push to holders.
func (n *CacheNode) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	now := n.now()

	n.mu.Lock()
	n.chargeBeaconLoad(req.Doc.URL)
	rec, ok := n.records[req.Doc.URL]
	if !ok {
		rec = newNodeRecord()
		n.records[req.Doc.URL] = rec
	}
	rec.updates.Observe(now, 1)
	if req.Doc.Version > rec.version {
		rec.version = req.Doc.Version
	}
	// The rates are read under the lock: Rate decays the estimator in
	// place, racing with concurrent lookups and updates observing it.
	holders := rec.holders.list() // sorted: deterministic fan-out order
	push := UpdateRequest{
		Doc:        req.Doc,
		LookupRate: rec.lookups.Rate(now),
		UpdateRate: rec.updates.Rate(now),
		Replicas:   len(holders),
	}
	n.mu.Unlock()

	notified := 0
	var stale []string
	for _, h := range holders {
		if h == n.name {
			if n.applyLocal(push) {
				notified++
			} else {
				stale = append(stale, h)
			}
			continue
		}
		if n.isDown(h) {
			// A dead holder cannot refresh its copy; drop it from the
			// record so it re-registers after rejoining.
			stale = append(stale, h)
			continue
		}
		base, ok := n.cfg.Addrs[h]
		if !ok {
			continue
		}
		var ar applyResponse
		if err := n.tp.PostJSON(r.Context(), base+"/apply", push, &ar); err == nil {
			notified++
			if !ar.Held {
				stale = append(stale, h)
			}
		} else {
			// The push never reached the holder: its copy is now stale.
			// Drop it from the record so lookups stop steering requesters
			// at an outdated copy; the holder re-registers on its next
			// reconcile pass (or re-fetch) once reachable again.
			stale = append(stale, h)
		}
	}
	n.mu.Lock()
	for _, h := range stale {
		rec.holders.remove(h)
	}
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, UpdateResponse{Notified: notified})
}

// applyResponse is the body of a /apply reply.
type applyResponse struct {
	Held bool `json:"held"`
}

// applyLocal refreshes a held copy with the pushed version, then
// re-evaluates the placement decision using the beacon's piggybacked
// monitoring: a copy whose consistency-maintenance cost has overtaken its
// benefit is dropped rather than refreshed again next time.
func (n *CacheNode) applyLocal(req UpdateRequest) bool {
	now := n.now()
	if !n.store.ApplyUpdate(req.Doc, now) {
		return false
	}
	others := req.Replicas - 1
	if others < 0 {
		others = 0
	}
	owner, ownerErr := n.assignSnapshot().ownerOf(req.Doc.URL, n.cfg.IntraGen)
	ctx := placement.Context{
		Now: now, CacheID: n.name, DocURL: req.Doc.URL, DocSize: req.Doc.Size,
		IsBeacon:        ownerErr == nil && owner == n.name,
		LocalAccessRate: n.store.AccessRate(req.Doc.URL, now),
		MeanLocalRate:   n.store.MeanAccessRate(now),
		CloudLookupRate: req.LookupRate,
		CloudUpdateRate: req.UpdateRate,
		ReplicaCount:    others,
		Residence:       placement.ExpectedResidence(n.store.Capacity(), n.store.EvictionByteRate(now)),
	}
	if _, isAdHoc := n.policy.(placement.AdHoc); !isAdHoc && !n.policy.ShouldStore(ctx).Store {
		n.store.Remove(req.Doc.URL)
		return false
	}
	return true
}

func (n *CacheNode) handleApply(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, applyResponse{Held: n.applyLocal(req)})
}

// dropResponse is the body of a /drop reply.
type dropResponse struct {
	Dropped bool `json:"dropped"`
}

// dropLocal removes every trace of a document from this node: the stored
// copy, the owned lookup record, the sibling replica, and the degraded
// mark. Replicas must go too — otherwise a later /subranges install could
// promote a replica of the purged record and resurrect stale holder lists.
func (n *CacheNode) dropLocal(url string) bool {
	dropped := n.store.Remove(url)
	n.mu.Lock()
	delete(n.records, url)
	delete(n.replicas, url)
	delete(n.replicaFrom, url)
	delete(n.degradedURLs, url)
	n.mu.Unlock()
	return dropped
}

// handlePurge is the beacon receiving a scoped invalidation (from a shield
// in two-tier mode, from the origin directly in single-tier mode). The
// purge is broadcast as /drop to every live peer — not just the recorded
// holders — so unregistered copies and sibling replicas of the record
// cannot resurrect the document after the purge.
func (n *CacheNode) handlePurge(w http.ResponseWriter, r *http.Request) {
	var req PurgeRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.URL == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing url"))
		return
	}
	n.chargeBeaconLoadLocked(req.URL)
	n.mu.Lock()
	peers := make([]string, 0, len(n.cfg.Addrs))
	for name := range n.cfg.Addrs {
		if name != n.name && !n.down[name] {
			peers = append(peers, name)
		}
	}
	n.mu.Unlock()
	sort.Strings(peers) // deterministic broadcast order
	dropped := 0
	if n.dropLocal(req.URL) {
		dropped++
	}
	for _, p := range peers {
		base, ok := n.cfg.Addrs[p]
		if !ok {
			continue
		}
		var dr dropResponse
		if err := n.tp.PostJSON(r.Context(), base+"/drop", req, &dr); err == nil && dr.Dropped {
			dropped++
		}
	}
	writeJSON(w, http.StatusOK, PurgeResponse{Dropped: dropped})
}

// handleDrop removes this node's copy (and any record or replica traces)
// of a purged document.
func (n *CacheNode) handleDrop(w http.ResponseWriter, r *http.Request) {
	var req PurgeRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, dropResponse{Dropped: n.dropLocal(req.URL)})
}

// chargeBeaconLoadLocked wraps chargeBeaconLoad in n.mu for callers that
// do not already hold it.
func (n *CacheNode) chargeBeaconLoadLocked(url string) {
	n.mu.Lock()
	n.chargeBeaconLoad(url)
	n.mu.Unlock()
}

// handleSubranges installs a new assignment and hands off the lookup
// records this node no longer owns. Records for newly owned sub-ranges
// that are missing locally are promoted from the sibling replicas — this
// is how lookups survive a beacon crash (Section 2.3's lazy replication).
func (n *CacheNode) handleSubranges(w http.ResponseWriter, r *http.Request) {
	var req Assignments
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	n.mu.Lock()
	n.assign = req
	n.publishAssign()
	promoted := 0
	for url, wr := range n.replicas {
		owner, err := req.ownerOf(url, n.cfg.IntraGen)
		if err != nil || owner != n.name {
			continue
		}
		rec, have := n.records[url]
		if !have {
			rec = newNodeRecord()
			n.records[url] = rec
		}
		// Fold the replica into the (possibly fresh) record: failover
		// traffic during the detection window may already have recreated
		// it, but the replica can still carry holders it lacks. The
		// replica is consumed either way so a later install does not
		// count it as recovered again.
		if wr.Version > rec.version {
			rec.version = wr.Version
		}
		for _, h := range wr.Holders {
			if !n.down[h] {
				rec.holders.add(h)
			}
		}
		delete(n.replicas, url)
		delete(n.replicaFrom, url)
		promoted++
	}
	// Find records whose owner is no longer this node.
	outbound := make(map[string][]WireRecord)
	for url, rec := range n.records {
		owner, err := req.ownerOf(url, n.cfg.IntraGen)
		if err != nil || owner == n.name {
			continue
		}
		wr := WireRecord{URL: url, Version: rec.version, Holders: rec.holders.list()}
		outbound[owner] = append(outbound[owner], wr)
		delete(n.records, url)
	}
	n.mu.Unlock()
	n.rekeyGone(req)

	owners := make([]string, 0, len(outbound))
	for owner := range outbound {
		owners = append(owners, owner)
	}
	sort.Strings(owners) // deterministic hand-off order
	for _, owner := range owners {
		recs := outbound[owner]
		sort.Slice(recs, func(i, j int) bool { return recs[i].URL < recs[j].URL })
		base, ok := n.cfg.Addrs[owner]
		if !ok {
			continue
		}
		_ = n.tp.PostJSON(r.Context(), base+"/records/import", RecordsImport{Records: recs}, nil)
	}
	writeJSON(w, http.StatusOK, SubrangesResponse{MigratedOut: len(outbound), Promoted: promoted})
}

// handleRecordsReplica stores a sibling's record copies without taking
// ownership; they are promoted only if this node later owns their range.
func (n *CacheNode) handleRecordsReplica(w http.ResponseWriter, r *http.Request) {
	var req RecordsImport
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	n.mu.Lock()
	if req.Reset {
		// The push is a full snapshot of the sender's records: drop stale
		// replicas previously pushed by the same sender so they cannot be
		// promoted later. Replicas from other ring siblings are kept.
		for url, from := range n.replicaFrom {
			if req.From == "" || from == req.From {
				delete(n.replicas, url)
				delete(n.replicaFrom, url)
			}
		}
	}
	for _, wr := range req.Records {
		n.replicas[wr.URL] = wr
		n.replicaFrom[wr.URL] = req.From
	}
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]int{"replicated": len(req.Records)})
}

// handleReplicate pushes this node's lookup records to its ring sibling
// (the lazy replication pass, typically triggered by the origin once per
// cycle).
func (n *CacheNode) handleReplicate(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	ringIdx := n.assign.ringOf(n.name)
	sibling := ""
	if ringIdx >= 0 {
		for _, sub := range n.assign.Rings[ringIdx] {
			if sub.Node != n.name && !n.down[sub.Node] {
				sibling = sub.Node
				break
			}
		}
	}
	recs := make([]WireRecord, 0, len(n.records))
	for url, rec := range n.records {
		recs = append(recs, WireRecord{URL: url, Version: rec.version, Holders: rec.holders.list()})
	}
	n.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].URL < recs[j].URL })

	if sibling == "" || len(recs) == 0 {
		writeJSON(w, http.StatusOK, map[string]int{"sent": 0})
		return
	}
	base, ok := n.cfg.Addrs[sibling]
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("no address for sibling %q", sibling))
		return
	}
	// Reset: this payload is a full snapshot of the node's records, so the
	// sibling must not keep (and later promote) replicas of records this
	// node no longer holds.
	if err := n.tp.PostJSON(r.Context(), base+"/records/replica", RecordsImport{Records: recs, Reset: true, From: n.name}, nil); err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"sent": len(recs)})
}

// handleGetSubranges exposes this node's current view of the sub-range
// layout (observability).
func (n *CacheNode) handleGetSubranges(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, *n.assignSnapshot())
}

// handleHealthz answers origin liveness probes.
func (n *CacheNode) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": n.name})
}

func (n *CacheNode) handleRecordsImport(w http.ResponseWriter, r *http.Request) {
	var req RecordsImport
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	n.mu.Lock()
	for _, wr := range req.Records {
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
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]int{"imported": len(req.Records)})
}

// handleLoadsCollect reports this node's per-IrH cycle loads and resets
// them (called by the origin at the end of each cycle).
func (n *CacheNode) handleLoadsCollect(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	rep := LoadReport{Node: n.name, PerIrH: make(map[int][]int64, len(n.loads))}
	for ringIdx, dense := range n.loads {
		cp := make([]int64, len(dense))
		copy(cp, dense)
		rep.PerIrH[ringIdx] = cp
		for _, v := range dense {
			rep.Total += v
		}
		for i := range dense {
			dense[i] = 0
		}
	}
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, rep)
}

func (n *CacheNode) handleStats(w http.ResponseWriter, r *http.Request) {
	local, peer, origin := n.localHits.Value(), n.peerHits.Value(), n.originMZ.Value()
	total := local + peer + origin
	hitRate := 0.0
	if total > 0 {
		hitRate = float64(local+peer) / float64(total)
	}
	n.mu.Lock()
	records, downPeers := len(n.records), len(n.down)
	n.mu.Unlock()
	ad := n.Admission()
	st := CacheStats{
		Node:          n.name,
		StoredDocs:    n.store.Len(),
		UsedBytes:     n.store.Used(),
		LocalHits:     local,
		PeerHits:      peer,
		OriginMiss:    origin,
		BeaconOps:     n.beaconOps.Value(),
		HitRate:       hitRate,
		RecordsHeld:   records,
		FailedOver:    n.failedOver.Value(),
		Degraded:      n.degraded.Value(),
		DownPeers:     downPeers,
		Requests:      ad.Requests,
		Served:        ad.Served,
		Shed:          ad.Shed,
		Failed:        ad.Failed,
		OriginFetches: ad.OriginFetches,
		Coalesced:     ad.Coalesced,
		LimitNow:      ad.Limit,
	}
	if n.shieldRouter != nil {
		st.ShieldFetches = n.shieldFetches.Value()
		st.ShieldHits = n.shieldHits.Value()
		st.ShieldFailover = n.shieldFailover.Value()
		st.ShieldDegraded = n.shieldDegraded.Value()
	}
	if n.durable != nil {
		ds := n.durable.Stats()
		st.WarmBoot = n.warmBoot
		st.WarmRecovered = n.warmRecovered
		st.WarmRevalidated = n.warmRevalidated.Load()
		st.WarmDropped = n.warmDropped.Load()
		st.StoreTruncations = ds.Truncations
		st.StoreCompactions = ds.Compactions
		st.StoreSegments = ds.Segments
		st.StoreBytes = ds.TotalBytes
		st.DurableErrors = n.store.DurableErrors()
	}
	st.Tenants = n.TenantAdmission()
	writeJSON(w, http.StatusOK, st)
}

// handleMembership receives the origin's broadcast of dead peers. Dead
// nodes are dropped from all holder lists so lookups stop steering
// requesters at them; they re-register as holders after rejoining.
func (n *CacheNode) handleMembership(w http.ResponseWriter, r *http.Request) {
	var req MembershipUpdate
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	n.mu.Lock()
	n.down = make(map[string]bool, len(req.Down))
	for _, d := range req.Down {
		n.down[d] = true
	}
	if len(n.down) > 0 {
		for _, rec := range n.records {
			for d := range n.down {
				rec.holders.remove(d)
			}
		}
		for url, wr := range n.replicas {
			kept := wr.Holders[:0]
			for _, h := range wr.Holders {
				if !n.down[h] {
					kept = append(kept, h)
				}
			}
			wr.Holders = kept
			n.replicas[url] = wr
		}
	}
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleReconcile is the beacon side of the anti-entropy pass: a holder
// reports the copies it stores whose beacon duty falls on this node. The
// beacon re-registers each current copy — healing lookup records lost to
// crashes, capacity churn, or stores made while the beacon was
// unreachable — and advances its record version to the newest copy seen.
// A copy staler than the version the beacon already fanned out gets
// Keep=false: the holder drops it, bounding staleness to one reconcile
// interval.
func (n *CacheNode) handleReconcile(w http.ResponseWriter, r *http.Request) {
	var req ReconcileRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := checkHolderReport(req.Node, req.Gone); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	for _, e := range req.Entries {
		if e.URL == "" {
			writeErr(w, http.StatusBadRequest, errors.New("empty url in entries"))
			return
		}
	}
	for _, url := range req.Gone {
		n.localDeregister(url, req.Node)
	}
	writeJSON(w, http.StatusOK, ReconcileResponse{Results: n.reconcileEntries(req.Node, req.Entries)})
}

// reconcileEntries folds one holder's reconcile report into this beacon's
// records and produces the per-copy verdicts.
func (n *CacheNode) reconcileEntries(holder string, entries []ReconcileEntry) []ReconcileResult {
	out := make([]ReconcileResult, 0, len(entries))
	n.mu.Lock()
	for _, e := range entries {
		owner, err := n.assign.ownerOf(e.URL, n.cfg.IntraGen)
		owned := err == nil && owner == n.name
		res := ReconcileResult{URL: e.URL, Version: e.Version, Owned: owned, Keep: true}
		if owned {
			rec, ok := n.records[e.URL]
			if !ok {
				rec = newNodeRecord()
				n.records[e.URL] = rec
			}
			if e.Version < rec.version {
				rec.holders.remove(holder)
				res.Keep = false
			} else {
				rec.holders.add(holder)
				rec.version = e.Version
			}
			res.Version = rec.version
		}
		out = append(out, res)
	}
	n.mu.Unlock()
	return out
}

// Reconcile runs one holder-side anti-entropy pass: every stored copy is
// reported to its current beacon point, grouped into one /reconcile call
// per beacon, together with the lazy deregistrations pending for it. A
// beacon with pending entries but no stored copies is contacted too, so
// each pass flushes every reachable beacon's pending set. Copies the
// beacon rules stale (Keep=false) are dropped from the store. Beacons
// that are down or unreachable are skipped — their copies and pending
// entries are retried on the next pass. Returns how many copies were
// reported and how many were dropped as stale.
func (n *CacheNode) Reconcile(ctx context.Context) (reported, dropped int) {
	n.resubscribeDegraded(ctx)
	urls := n.store.Documents()
	sort.Strings(urls) // deterministic report order
	type group struct {
		base    string
		entries []ReconcileEntry
	}
	groups := make(map[string]*group)
	var beacons []string
	var local []ReconcileEntry
	for _, url := range urls {
		cp, ok := n.store.Peek(url)
		if !ok {
			continue
		}
		e := ReconcileEntry{URL: url, Version: cp.Doc.Version}
		beaconName, beaconBase, err := n.beaconURL(url)
		if err != nil {
			continue
		}
		if beaconName == n.name {
			local = append(local, e)
			continue
		}
		if n.isDown(beaconName) {
			continue
		}
		g := groups[beaconName]
		if g == nil {
			g = &group{base: beaconBase}
			groups[beaconName] = g
			beacons = append(beacons, beaconName)
		}
		g.entries = append(g.entries, e)
	}
	for _, name := range n.goneBeacons() {
		if groups[name] != nil || n.isDown(name) {
			continue
		}
		if base, ok := n.cfg.Addrs[name]; ok {
			groups[name] = &group{base: base}
			beacons = append(beacons, name)
		}
	}

	apply := func(results []ReconcileResult) {
		for _, res := range results {
			reported++
			if res.Owned && !res.Keep {
				if n.store.Remove(res.URL) {
					dropped++
				}
			}
		}
	}
	if len(local) > 0 {
		apply(n.reconcileEntries(n.name, local))
	}
	for _, name := range beacons {
		g := groups[name]
		var resp ReconcileResponse
		gone, mark := n.pendingGone(name)
		req := ReconcileRequest{Node: n.name, Entries: g.entries, Gone: gone}
		if err := n.tp.PostJSON(ctx, g.base+"/reconcile", req, &resp); err != nil {
			continue
		}
		n.goneDelivered(ctx, name, gone, mark)
		apply(resp.Results)
	}
	return reported, dropped
}

// StartReconcile begins the periodic holder-side anti-entropy pass. The
// returned stop function is idempotent and safe to call concurrently.
func (n *CacheNode) StartReconcile(interval time.Duration) (stop func()) {
	return every(n.clock, interval, false, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n.Reconcile(ctx)
	})
}

// --- white-box inspection accessors (deterministic simulation harness) ---

// Records returns a sorted snapshot of the lookup records this node owns
// as beacon, with holder lists sorted.
func (n *CacheNode) Records() []WireRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]WireRecord, 0, len(n.records))
	for url, rec := range n.records {
		out = append(out, WireRecord{URL: url, Version: rec.version, Holders: rec.holders.list()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// ReplicaSnapshot returns a sorted snapshot of the sibling replicas this
// node holds (not owned; promotion candidates after a crash).
func (n *CacheNode) ReplicaSnapshot() []WireRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]WireRecord, 0, len(n.replicas))
	for _, wr := range n.replicas {
		cp := WireRecord{URL: wr.URL, Version: wr.Version, Holders: append([]string(nil), wr.Holders...)}
		sort.Strings(cp.Holders)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// StoredVersions returns the URL → version map of the documents in this
// node's store.
func (n *CacheNode) StoredVersions() map[string]document.Version {
	out := make(map[string]document.Version)
	for _, url := range n.store.Documents() {
		if cp, ok := n.store.Peek(url); ok {
			out[url] = cp.Doc.Version
		}
	}
	return out
}

// ShieldDegraded returns how many upstream fetches bypassed an
// unreachable shield tier and went straight to the origin (white-box
// accessor for the deterministic harness: such copies carry no shield
// subscription until the next reconcile re-attaches them).
func (n *CacheNode) ShieldDegraded() int64 {
	if n.shieldDegraded == nil {
		return 0
	}
	return n.shieldDegraded.Value()
}

// AssignmentsView returns this node's current view of the sub-range
// layout.
func (n *CacheNode) AssignmentsView() Assignments {
	return *n.assignSnapshot()
}

// DownView returns the sorted list of peers this node currently considers
// dead (per the origin's last membership broadcast).
func (n *CacheNode) DownView() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.down))
	for d := range n.down {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// StartHeartbeat begins reporting liveness to the origin every interval.
// The first beat is sent immediately so detection starts fresh. The
// returned stop function is idempotent and safe to call concurrently.
func (n *CacheNode) StartHeartbeat(interval time.Duration) (stop func()) {
	return every(n.clock, interval, true, n.sendHeartbeat)
}

// sendHeartbeat posts one beat. RecordsHeld rides along so the origin
// knows how many lookup records are at stake if this node crashes.
func (n *CacheNode) sendHeartbeat() {
	n.mu.Lock()
	n.hbSeq++
	req := HeartbeatRequest{
		Node:        n.name,
		Seq:         n.hbSeq,
		RecordsHeld: len(n.records),
		StoredDocs:  n.store.Len(),
	}
	n.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var hr HeartbeatResponse
	_ = n.tp.PostJSON(ctx, n.cfg.OriginAddr+"/heartbeat", req, &hr)
}
