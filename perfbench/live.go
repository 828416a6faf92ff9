package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/node"
	"cachecloud/internal/tenant"
)

// liveSpec describes one workload driven over loopback HTTP.
type liveSpec struct {
	docs         int
	alpha        float64
	capacityFrac float64  // per-node capacity as a share of corpus bytes; 0 = unlimited
	utility      bool     // utility placement instead of ad hoc
	tenants      []string // request tenants; nil = the default tenant only
	weights      []int    // tenant weights; byte quotas split capacity in the same proportion
	shields      int
	durable      bool
	publishEvery int  // every n-th op is a publish (0 = none)
	prime        bool // prime every node with the whole catalog
	warmupOps    int  // discarded ops run after priming
}

const (
	// clusterNodes cache nodes form rings of ringSize beacon points.
	clusterNodes = 6
	ringSize     = 2
	// callers is the closed loop's concurrency while measuring: with two
	// cores, more callers would queue in the generator itself.
	callers = 2
	// warmupCallers drive priming and warm-up, whose results are
	// discarded, so they may saturate the host.
	warmupCallers = 4
)

// setups is how many times a run sets up its cluster; setup_s is the
// median and the last cluster is measured.
const setups = 3

// liveRun is one booted cluster plus the load generator driving it.
type liveRun struct {
	lc       *node.LocalCluster
	names    []string
	docs     []document.Document
	g        *generator
	storeDir string
	capacity int64 // per-node bytes, 0 = unlimited
}

// startLive boots the cluster, primes and warms it. The recorder's
// transport factory is used when traced is set (spans stay off until a
// traced phase enables them).
func startLive(spec liveSpec, docs []document.Document, esc []string, warm []op, rec *Recorder, traced bool, scratch string) (*liveRun, error) {
	names := make([]string, clusterNodes)
	for i := range names {
		names[i] = fmt.Sprintf("node-%02d", i)
	}
	var capacity int64
	if spec.capacityFrac > 0 {
		capacity = int64(spec.capacityFrac * float64(corpusBytes(docs)))
	}
	cfg := node.ClusterConfig{CapacityBytes: capacity, UtilityPlacement: spec.utility}
	if len(spec.tenants) > 0 {
		total := 0
		for _, w := range spec.weights {
			total += w
		}
		cfg.Tenants = make(map[string]tenant.Quota, len(spec.tenants))
		for i, id := range spec.tenants {
			cfg.Tenants[id] = tenant.Quota{Weight: spec.weights[i], Bytes: capacity * int64(spec.weights[i]) / int64(total)}
		}
	}
	for i := 0; i < spec.shields; i++ {
		cfg.Shields = append(cfg.Shields, fmt.Sprintf("shield-%d", i))
	}
	r := &liveRun{names: names, docs: docs, capacity: capacity}
	if spec.durable {
		dir, err := os.MkdirTemp(scratch, "store-")
		if err != nil {
			return nil, fmt.Errorf("store dir: %w", err)
		}
		r.storeDir = dir
		cfg.StoreDir = dir
	}
	var mk node.TransportFactory
	if traced {
		mk = rec.Factory()
	}
	lc, err := node.StartLocalClusterWith(names, ringSize, docs, cfg, mk)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	r.lc = lc
	addrs := make([]string, len(names))
	for i, n := range names {
		addrs[i] = lc.Cfg.Addrs[n]
	}
	r.g = newGenerator(docs, esc, addrs, lc.Cfg.OriginAddr, spec.tenants, rec)
	if spec.prime {
		grid := make([]op, 0, len(docs)*len(names))
		for d := range docs {
			for n := range names {
				grid = append(grid, op{node: uint8(n), doc: int32(d)})
			}
		}
		var cursor atomic.Int64
		r.g.run(grid, &cursor, warmupCallers, len(grid), time.Time{})
	}
	if spec.warmupOps > 0 {
		var cursor atomic.Int64
		r.g.run(warm, &cursor, warmupCallers, spec.warmupOps, time.Time{})
	}
	return r, nil
}

func (r *liveRun) close() {
	if r.g != nil {
		r.g.client.CloseIdleConnections()
	}
	if r.lc != nil {
		r.lc.Close()
	}
	if r.storeDir != "" {
		_ = os.RemoveAll(r.storeDir)
	}
}

// bootLive sets the cluster up `setups` times, closes all but the last
// and returns it with the median set-up time in seconds.
func bootLive(spec liveSpec, docs []document.Document, esc []string, warm []op, rec *Recorder, traced bool, scratch string) (*liveRun, float64, error) {
	var times []float64
	var r *liveRun
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = startLive(spec, docs, esc, warm, rec, traced, scratch)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return r, medianF(times), nil
}

// generator is the closed-loop load generator and the reply checker.
type generator struct {
	client  *http.Client
	docs    []document.Document
	esc     []string
	addrs   []string
	origin  string
	tenants []string
	rec     *Recorder

	acked   []atomic.Uint64 // per doc: highest version a /publish acknowledged
	maxSeen []atomic.Uint64 // per doc: highest version a /doc reply carried
	ok200   atomic.Int64    // 200 /doc replies over the cluster's life

	mu     sync.Mutex
	faults []string // output-check failures (first few kept)
	nFault int
}

func newGenerator(docs []document.Document, esc, addrs []string, origin string, tenants []string, rec *Recorder) *generator {
	return &generator{
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 64, MaxIdleConnsPerHost: 16, DisableCompression: true,
		}},
		docs: docs, esc: esc, addrs: addrs, origin: origin, tenants: tenants, rec: rec,
		acked:   make([]atomic.Uint64, len(docs)),
		maxSeen: make([]atomic.Uint64, len(docs)),
	}
}

func (g *generator) fault(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nFault++
	if len(g.faults) < 8 {
		g.faults = append(g.faults, fmt.Sprintf(format, args...))
	}
}

// tally is what one phase of the closed loop observed.
type tally struct {
	docLat, pubLat []int64 // ns; unbounded for failed requests
	docEnd         []int64 // completion time of each docLat sample (recorder clock)
	bySource       map[string][]int64
	docs, pubs     int64
	docFailed      int64
	pubFailed      int64
	misses, stored int64 // misses, and misses whose reply has Stored
	stale          int64 // replies older than a version acknowledged before the request
	begin          int64 // phase start (recorder clock)
	elapsed        time.Duration
}

func newTally() *tally { return &tally{bySource: make(map[string][]int64)} }

// windows splits a single phase into n equal windows by completion time
// and returns each window's completed /doc rate and latency median (us).
func (t *tally) windows(n int) (rates, p50s []float64) {
	width := int64(t.elapsed) / int64(n)
	if width <= 0 {
		return nil, nil
	}
	lat := make([][]int64, n)
	for i, end := range t.docEnd {
		w := int((end - t.begin) / width)
		if w < 0 || w >= n {
			continue
		}
		lat[w] = append(lat[w], t.docLat[i])
	}
	for _, l := range lat {
		ok := 0
		for _, v := range l {
			if v != unbounded {
				ok++
			}
		}
		rates = append(rates, float64(ok)/time.Duration(width).Seconds())
		p50s = append(p50s, us(quantile(sortedCopy(l), 0.5)))
	}
	return rates, p50s
}

func (t *tally) merge(o *tally) {
	if len(t.docEnd) == 0 {
		t.begin = o.begin
	}
	t.docLat = append(t.docLat, o.docLat...)
	t.docEnd = append(t.docEnd, o.docEnd...)
	t.pubLat = append(t.pubLat, o.pubLat...)
	for k, v := range o.bySource {
		t.bySource[k] = append(t.bySource[k], v...)
	}
	t.docs += o.docs
	t.pubs += o.pubs
	t.docFailed += o.docFailed
	t.pubFailed += o.pubFailed
	t.misses += o.misses
	t.stored += o.stored
	t.stale += o.stale
	t.elapsed += o.elapsed
}

// run drives ops with the given number of closed-loop callers, taking
// the next op at the cursor, until the cursor reaches limit (limit > 0)
// or the deadline passes. The stream wraps around. It returns once every
// caller has stopped.
func (g *generator) run(ops []op, next *atomic.Int64, callers, limit int, deadline time.Time) *tally {
	parts := make([]*tally, callers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		parts[c] = newTally()
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if limit > 0 && i >= int64(limit) {
					return
				}
				if limit <= 0 && !time.Now().Before(deadline) {
					return
				}
				o := ops[i%int64(len(ops))]
				if o.publish {
					g.publish(o, t)
				} else {
					g.doc(o, t)
				}
			}
		}(parts[c])
	}
	wg.Wait()
	total := newTally()
	for _, p := range parts {
		total.merge(p)
	}
	total.begin = g.rec.now() - int64(time.Since(t0))
	total.elapsed = time.Since(t0)
	return total
}

func (g *generator) tenantOf(o op) string {
	if len(g.tenants) == 0 {
		return ""
	}
	return g.tenants[o.tenant]
}

// doc issues one GET /doc and checks the reply.
func (g *generator) doc(o op, t *tally) {
	d := g.docs[o.doc]
	tid := g.tenantOf(o)
	req, err := http.NewRequest(http.MethodGet, g.addrs[o.node]+"/doc?url="+g.esc[o.doc], nil)
	if err != nil {
		g.fault("build request: %v", err)
		return
	}
	if tid != "" {
		req.Header.Set(node.TenantHeader, tid)
	}
	ackedBefore := g.acked[o.doc].Load()
	start := g.rec.now()
	var dr node.DocResponse
	status, err := g.do(req, &dr)
	end := g.rec.now()
	t.docs++
	key := document.TenantKey(tid, d.URL)
	if err != nil || status != http.StatusOK {
		t.docFailed++
		t.docLat = append(t.docLat, unbounded)
		t.docEnd = append(t.docEnd, end)
		g.rec.AddClient(Span{Caller: "client", Target: nodeName(o.node), Op: "doc", Key: key, Start: start, End: end, Err: true})
		return
	}
	g.ok200.Add(1)
	lat := end - start
	t.docLat = append(t.docLat, lat)
	t.docEnd = append(t.docEnd, end)
	t.bySource[dr.Source] = append(t.bySource[dr.Source], lat)
	g.rec.AddClient(Span{Caller: "client", Target: nodeName(o.node), Op: "doc", Key: key, Start: start, End: end, Source: dr.Source})
	if dr.Doc.URL != d.URL && dr.Doc.URL != key {
		g.fault("/doc %q (tenant %q) answered with document %q", d.URL, tid, dr.Doc.URL)
	}
	switch dr.Source {
	case "local":
	case "peer", "origin":
		t.misses++
		if dr.Stored {
			t.stored++
		}
	default:
		g.fault("/doc %q: unknown source %q", d.URL, dr.Source)
	}
	v := uint64(dr.Doc.Version)
	if v == 0 {
		g.fault("/doc %q: version 0", d.URL)
	}
	if v < ackedBefore {
		t.stale++
	}
	atomicMax(&g.maxSeen[o.doc], v)
}

// publish issues one POST /publish to the origin.
func (g *generator) publish(o op, t *tally) {
	d := g.docs[o.doc]
	body, err := json.Marshal(node.PublishRequest{URL: d.URL})
	if err != nil {
		g.fault("encode publish: %v", err)
		return
	}
	req, err := http.NewRequest(http.MethodPost, g.origin+"/publish", bytes.NewReader(body))
	if err != nil {
		g.fault("build request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	start := g.rec.now()
	var pr node.PublishResponse
	status, err := g.do(req, &pr)
	end := g.rec.now()
	t.pubs++
	if err != nil || status != http.StatusOK {
		t.pubFailed++
		t.pubLat = append(t.pubLat, unbounded)
		g.rec.AddClient(Span{Caller: "client", Target: "origin", Op: "publish", Key: d.URL, Start: start, End: end, Err: true})
		return
	}
	t.pubLat = append(t.pubLat, end-start)
	g.rec.AddClient(Span{Caller: "client", Target: "origin", Op: "publish", Key: d.URL, Start: start, End: end})
	if pr.Version < 2 {
		g.fault("/publish %q acknowledged version %d", d.URL, pr.Version)
	}
	atomicMax(&g.acked[o.doc], uint64(pr.Version))
}

// do sends a request and decodes a 200 reply's JSON body into out.
func (g *generator) do(req *http.Request, out any) (int, error) {
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

func atomicMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func nodeName(i uint8) string { return fmt.Sprintf("node-%02d", i) }

// snapshot is the cluster's own accounting at a quiescent point.
type snapshot struct {
	nodes   []node.CacheStats
	origin  node.OriginStats
	shields []node.ShieldStats
	mallocs uint64
	numGC   uint32
}

func (r *liveRun) snapshot() (snapshot, error) {
	var s snapshot
	for _, n := range r.names {
		var st node.CacheStats
		req, err := http.NewRequest(http.MethodGet, r.lc.Cfg.Addrs[n]+"/stats", nil)
		if err != nil {
			return s, err
		}
		if status, err := r.g.do(req, &st); err != nil || status != http.StatusOK {
			return s, fmt.Errorf("%s /stats: status %d: %v", n, status, err)
		}
		s.nodes = append(s.nodes, st)
	}
	s.origin = r.lc.Origin.Stats()
	names := make([]string, 0, len(r.lc.Shields))
	for n := range r.lc.Shields {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s.shields = append(s.shields, r.lc.Shields[n].Stats())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.numGC = ms.Mallocs, ms.NumGC
	return s, nil
}

// counters are snapshot differences summed over nodes and shields.
type counters struct {
	requests, served, shed, failed int64
	coalesced, tenantShed          int64
	originFetches, originBytes     int64
	shieldFetches, shieldHits      int64
	shieldUpdatesIn, shieldFanned  int64
	storeBytes, compactions        int64
	mallocs, gcs                   int64
}

func diff(a, b snapshot) counters {
	var c counters
	for i := range b.nodes {
		x, y := a.nodes[i], b.nodes[i]
		c.requests += y.Requests - x.Requests
		c.served += y.Served - x.Served
		c.shed += y.Shed - x.Shed
		c.failed += y.Failed - x.Failed
		c.coalesced += y.Coalesced - x.Coalesced
		c.storeBytes += y.StoreBytes - x.StoreBytes
		c.compactions += y.StoreCompactions - x.StoreCompactions
		for id, ts := range y.Tenants {
			c.tenantShed += ts.Shed - x.Tenants[id].Shed
		}
	}
	c.originFetches = b.origin.Fetches - a.origin.Fetches
	c.originBytes = b.origin.BytesServed - a.origin.BytesServed
	for i := range b.shields {
		x, y := a.shields[i], b.shields[i]
		c.shieldFetches += y.Fetches - x.Fetches
		c.shieldHits += y.ShieldHits - x.ShieldHits
		c.shieldUpdatesIn += y.UpdatesIn - x.UpdatesIn
		c.shieldFanned += y.UpdatesFanned - x.UpdatesFanned
	}
	c.mallocs = int64(b.mallocs - a.mallocs)
	c.gcs = int64(b.numGC - a.numGC)
	return c
}

func (c *counters) add(o counters) {
	c.requests += o.requests
	c.served += o.served
	c.shed += o.shed
	c.failed += o.failed
	c.coalesced += o.coalesced
	c.tenantShed += o.tenantShed
	c.originFetches += o.originFetches
	c.originBytes += o.originBytes
	c.shieldFetches += o.shieldFetches
	c.shieldHits += o.shieldHits
	c.shieldUpdatesIn += o.shieldUpdatesIn
	c.shieldFanned += o.shieldFanned
	c.storeBytes += o.storeBytes
	c.compactions += o.compactions
	c.mallocs += o.mallocs
	c.gcs += o.gcs
}

// check runs the quiescent output checks and returns their failures:
// the generator's reply checks, per-node conservation, served replies
// equal to the generator's 200s, and no reply newer than the origin.
func (r *liveRun) check(final snapshot) []string {
	var out []string
	r.g.mu.Lock()
	out = append(out, r.g.faults...)
	if r.g.nFault > len(r.g.faults) {
		out = append(out, fmt.Sprintf("... and %d more reply faults", r.g.nFault-len(r.g.faults)))
	}
	r.g.mu.Unlock()
	var served int64
	for _, st := range final.nodes {
		if st.Requests != st.Served+st.Shed+st.Failed {
			out = append(out, fmt.Sprintf("%s: requests %d != served %d + shed %d + failed %d",
				st.Node, st.Requests, st.Served, st.Shed, st.Failed))
		}
		served += st.Served
	}
	if ok := r.g.ok200.Load(); served != ok {
		out = append(out, fmt.Sprintf("nodes served %d /doc requests, the generator saw %d 200 replies", served, ok))
	}
	versions := r.lc.Origin.DocVersions()
	for i, d := range r.docs {
		if seen := r.g.maxSeen[i].Load(); seen > uint64(versions[d.URL]) {
			out = append(out, fmt.Sprintf("%s: reply version %d exceeds the origin's %d", d.URL, seen, versions[d.URL]))
			break
		}
	}
	return out
}
