package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"time"

	"cachecloud/internal/admit"
	"cachecloud/internal/cache"
	"cachecloud/internal/document"
	"cachecloud/internal/node"
	"cachecloud/internal/placement"
	"cachecloud/internal/tenant"
)

// probeReps is how many times each standalone probe loop runs; the
// median per-call time is reported.
const probeReps = 5

// Sinks keep the compiler from discarding probed calls.
var (
	sinkHash   document.Hash
	sinkString string
	sinkBool   bool
)

// probe runs f(0..n-1) probeReps times and returns the median time per
// call in ns and the allocations per call of the last repetition. The
// loop and closure call add a nanosecond or two to every figure.
func probe(n int, f func(i int)) (nsPerOp, allocsPerOp float64) {
	var times []float64
	for r := 0; r < probeReps; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		times = append(times, float64(el.Nanoseconds())/float64(n))
		allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	return medianF(times), allocsPerOp
}

// keyStream is a workload's document stream as the layers see it.
type keyStream struct {
	keys     []string // tenant-folded keys
	tenants  []string // tenant of each key
	idx      []int32  // catalog index of each key
	docs     []document.Document
	capacity int64          // per-cache bytes, 0 = unlimited
	quotas   map[string]int // tenant weights, nil without tenants
}

// layerProbes are the standalone timings of each layer's public calls.
type layerProbes struct {
	hashURL, tenantKey     float64
	cacheGet, cachePut     float64
	gate, limiter, fair    float64
	jsonEncode             float64
	shouldStore            float64
	handler, handlerAllocs float64 // in-process hit handler (live workloads)
}

// probeLayers times the document, cache, admit, tenant, wire-codec and
// placement calls over the workload's key stream.
func probeLayers(ks keyStream) layerProbes {
	var p layerProbes
	n := len(ks.keys)
	p.hashURL, _ = probe(n, func(i int) { sinkHash = document.HashURL(ks.keys[i]) })
	plain := make([]string, n)
	for i, k := range ks.keys {
		_, plain[i] = document.SplitTenantKey(k)
	}
	p.tenantKey, _ = probe(n, func(i int) { sinkString = document.TenantKey(ks.tenants[i], plain[i]) })

	// cache.Get on a cache at the workload's capacity, filled by the
	// stream (or with the whole catalog when capacity is unlimited).
	c := cache.New("probe", ks.capacity)
	if ks.capacity == 0 {
		for _, d := range ks.docs {
			_, _ = c.Put(document.Copy{Doc: d}, 0)
		}
	}
	copies := make([]document.Copy, n)
	for i, k := range ks.keys {
		d := ks.docs[ks.idx[i]]
		d.URL = k
		copies[i] = document.Copy{Doc: d}
		if ks.capacity > 0 {
			_, _ = c.Put(copies[i], 0)
		}
	}
	p.cacheGet, _ = probe(n, func(i int) { _, sinkBool = c.Get(ks.keys[i], int64(i>>10)) })
	put := cache.New("probe-put", ks.capacity)
	p.cachePut, _ = probe(n, func(i int) { _, _ = put.Put(copies[i], int64(i>>10)) })

	ctx := context.Background()
	gate := admit.NewGate(admit.GateOptions{
		Capacity: node.DefaultMaxInflight,
		QueueCap: [3]int{admit.Hit: 0, admit.Lookup: 0, admit.Miss: node.DefaultMissQueue},
	})
	p.gate, _ = probe(n, func(int) {
		if release, err := gate.Acquire(ctx, admit.Hit); err == nil {
			release()
		}
	})
	lim := admit.NewLimiter(admit.LimiterOptions{Max: node.DefaultMaxInflight / 4, QueueCap: node.DefaultMissQueue})
	p.limiter, _ = probe(n, func(int) {
		if release, err := lim.Acquire(ctx); err == nil {
			release(200*time.Microsecond, true)
		}
	})
	quotas := make(map[string]tenant.Quota, len(ks.quotas))
	for id, w := range ks.quotas {
		quotas[id] = tenant.Quota{Weight: w}
	}
	reg, err := tenant.NewRegistry(quotas)
	if err == nil {
		fs := tenant.NewFairShare(reg, node.DefaultMaxInflight)
		p.fair, _ = probe(n, func(i int) {
			if release, ok := fs.TryAcquire(ks.tenants[i]); ok {
				release()
			}
		})
	}
	p.jsonEncode, _ = probe(n, func(i int) {
		_ = json.NewEncoder(io.Discard).Encode(node.DocResponse{Doc: copies[i].Doc, Source: "local", Stored: true})
	})

	util, err := placement.NewUtility(placement.EqualOn(true, true, true, ks.capacity > 0), 0.5)
	if err == nil {
		mon := cache.New("probe-mon", ks.capacity)
		pctx := make([]placement.Context, n)
		for i, k := range ks.keys {
			now := int64(i >> 10)
			mon.Get(k, now)
			pctx[i] = placement.Context{
				Now: now, CacheID: "probe", DocURL: k, DocSize: copies[i].Doc.Size,
				LocalAccessRate: mon.AccessRate(k, now), MeanLocalRate: mon.MeanAccessRate(now),
				CloudLookupRate: 1, CloudUpdateRate: 0.1, ReplicaCount: i % 3,
				Residence: placement.ExpectedResidence(mon.Capacity(), mon.EvictionByteRate(now)),
			}
			if ks.capacity > 0 {
				_, _ = mon.Put(copies[i], now)
			}
		}
		p.shouldStore, _ = probe(n, func(i int) { sinkBool = util.ShouldStore(pctx[i]).Store })
	}
	return p
}

// discardWriter is a reusable http.ResponseWriter that drops the body.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// probeHandler serves local hits through a live node's handler in
// process: no socket, no client. It returns ns and allocs per request
// and false when the node holds no document to hit.
func probeHandler(cn *node.CacheNode, n int) (ns, allocs float64, ok bool) {
	held := cn.StoredVersions()
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return 0, 0, false
	}
	sort.Strings(keys)
	if len(keys) > 256 {
		keys = keys[:256]
	}
	reqs := make([]*http.Request, len(keys))
	for i, k := range keys {
		tid, plain := document.SplitTenantKey(k)
		req, err := http.NewRequest(http.MethodGet, "/doc?url="+url.QueryEscape(plain), nil)
		if err != nil {
			return 0, 0, false
		}
		if tid != "" {
			req.Header.Set(node.TenantHeader, tid)
		}
		reqs[i] = req
	}
	h := cn.Handler()
	w := &discardWriter{h: make(http.Header)}
	bad := 0
	ns, allocs = probe(n, func(i int) {
		clear(w.h)
		w.code = http.StatusOK
		h.ServeHTTP(w, reqs[i%len(reqs)])
		if w.code != http.StatusOK {
			bad++
		}
	})
	return ns, allocs, bad == 0
}
