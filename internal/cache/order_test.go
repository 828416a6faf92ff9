package cache

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"cachecloud/internal/document"
)

// refPolicy is the reference model for the per-tenant replacement orders:
// one flat rank table over every document, where a victim — cache-wide or
// tenant-scoped — is found by scanning ordered() from the back. That is
// how the cache chose victims before it kept an order per tenant, except
// that GDS now raises its clock on every eviction, tenant-scoped ones
// included.
type refPolicy struct {
	kind  ReplacementKind
	seq   uint64
	clock float64
	docs  map[string]*refDoc
}

type refDoc struct {
	key  float64
	seq  uint64
	size int64
}

func newRefPolicy(kind ReplacementKind) *refPolicy {
	return &refPolicy{kind: kind, docs: make(map[string]*refDoc)}
}

func (p *refPolicy) rekey(d *refDoc, inserted bool) {
	switch p.kind {
	case LFU:
		if inserted {
			d.key = 1
		} else {
			d.key++
		}
	case GreedyDualSize:
		d.key = p.clock + 1/float64(max(d.size, 1))
	}
	p.seq++
	d.seq = p.seq
}

func (p *refPolicy) onInsert(url, _ string, size int64) {
	d, ok := p.docs[url]
	if !ok {
		d = &refDoc{}
		p.docs[url] = d
	}
	d.size = size
	p.rekey(d, !ok)
}

func (p *refPolicy) onAccess(url string) {
	if d, ok := p.docs[url]; ok {
		p.rekey(d, false)
	}
}

func (p *refPolicy) onRemove(url string) { delete(p.docs, url) }

func (p *refPolicy) victim(exclude, tenant string, scoped bool) (string, bool) {
	ordered := p.ordered()
	for i := len(ordered) - 1; i >= 0; i-- {
		url := ordered[i]
		if url == exclude || (scoped && tenantOf(url) != tenant) {
			continue
		}
		if p.kind == GreedyDualSize && p.docs[url].key > p.clock {
			p.clock = p.docs[url].key
		}
		return url, true
	}
	return "", false
}

func (p *refPolicy) ordered() []string {
	urls := make([]string, 0, len(p.docs))
	for url := range p.docs {
		urls = append(urls, url)
	}
	sort.Slice(urls, func(i, j int) bool {
		a, b := p.docs[urls[i]], p.docs[urls[j]]
		if a.key != b.key {
			return a.key > b.key
		}
		return a.seq > b.seq
	})
	return urls
}

func evictedURLs(ds []document.Document) []string {
	urls := make([]string, len(ds))
	for i, d := range ds {
		urls[i] = d.URL
	}
	return urls
}

// TestTenantOrderMatchesReference drives random schedules of Put, Get,
// ApplyUpdate, Remove, quota shrinks and EnforceTenantQuotas over three
// tenants plus the default through two caches — one on the per-tenant
// orders, one on the reference model — and requires the same evictions,
// the same Documents() order and the same byte accounting after every
// step, for every replacement policy.
func TestTenantOrderMatchesReference(t *testing.T) {
	tenants := []string{"", "a", "b", "c"}
	for _, kind := range []ReplacementKind{LRU, LFU, GreedyDualSize} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", kind, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				quotas := quotaTable{"a": 3000, "b": 2000, "c": 0, "": 0}
				got := NewWithReplacement("got", 8000, kind)
				want := NewWithReplacement("want", 8000, kind)
				want.policy = newRefPolicy(kind)
				got.SetTenantQuotas(quotas)
				want.SetTenantQuotas(quotas)
				var scoped, total int
				for op := 0; op < 2500; op++ {
					now := int64(op)
					key := document.TenantKey(tenants[rng.Intn(len(tenants))], fmt.Sprintf("http://o/%d", rng.Intn(30)))
					var step string
					switch r := rng.Intn(20); {
					case r < 8:
						cp := document.Copy{Doc: document.Document{URL: key, Size: int64(rng.Intn(900) + 100), Version: document.Version(op)}, FetchedAt: now}
						gotEv, gotErr := got.Put(cp, now)
						wantEv, wantErr := want.Put(cp, now)
						step = fmt.Sprintf("put %s %dB", key, cp.Doc.Size)
						if (gotErr == nil) != (wantErr == nil) || gotErr != nil && !errors.Is(gotErr, ErrTenantQuota) {
							t.Fatalf("op %d %s: err %v, reference %v", op, step, gotErr, wantErr)
						}
						if g, w := evictedURLs(gotEv), evictedURLs(wantEv); !slices.Equal(g, w) {
							t.Fatalf("op %d %s: evicted %v, reference %v", op, step, g, w)
						}
						total += len(gotEv)
					case r < 13:
						_, gotOK := got.Get(key, now)
						_, wantOK := want.Get(key, now)
						step = "get " + key
						if gotOK != wantOK {
							t.Fatalf("op %d %s: hit %v, reference %v", op, step, gotOK, wantOK)
						}
					case r < 15:
						d := document.Document{URL: key, Size: int64(rng.Intn(1200) + 100), Version: document.Version(op)}
						step = "update " + key
						if g, w := got.ApplyUpdate(d, now), want.ApplyUpdate(d, now); g != w {
							t.Fatalf("op %d %s: held %v, reference %v", op, step, g, w)
						}
					case r < 17:
						step = "remove " + key
						if g, w := got.Remove(key), want.Remove(key); g != w {
							t.Fatalf("op %d %s: removed %v, reference %v", op, step, g, w)
						}
					case r < 18:
						tn := tenants[1+rng.Intn(2)]
						quotas[tn] = int64(rng.Intn(3000) + 500)
						step = fmt.Sprintf("quota %s=%d", tn, quotas[tn])
					default:
						gotEv, wantEv := got.EnforceTenantQuotas(now), want.EnforceTenantQuotas(now)
						step = "enforce"
						if g, w := evictedURLs(gotEv), evictedURLs(wantEv); !slices.Equal(g, w) {
							t.Fatalf("op %d %s: evicted %v, reference %v", op, step, g, w)
						}
						scoped += len(gotEv)
						total += len(gotEv)
					}
					if g, w := got.Documents(), want.Documents(); !slices.Equal(g, w) {
						t.Fatalf("op %d %s: Documents %v, reference %v", op, step, g, w)
					}
					if got.Used() != want.Used() || !maps.Equal(got.TenantUsage(), want.TenantUsage()) {
						t.Fatalf("op %d %s: usage %d %v, reference %d %v", op, step,
							got.Used(), got.TenantUsage(), want.Used(), want.TenantUsage())
					}
				}
				if scoped == 0 || total < 100 {
					t.Fatalf("schedule too tame: %d evictions, %d from quota sweeps", total, scoped)
				}
			})
		}
	}
}

// TestTenantGDSEvictionRaisesClock checks that a tenant-scoped eviction
// inflates the GreedyDual-Size clock like any other eviction, so a
// document inserted afterwards — in any tenant — outranks older ones
// with the same credit.
func TestTenantGDSEvictionRaisesClock(t *testing.T) {
	c := NewWithReplacement("e", 0, GreedyDualSize)
	c.SetTenantQuotas(quotaTable{"a": 2000})
	putDoc(t, c, "a", "http://o/x", 1000, 0) // H = 1/1000
	putDoc(t, c, "b", "http://o/y", 600, 1)  // H = 1/600
	putDoc(t, c, "a", "http://o/z", 1000, 2) // H = 1/1000
	ev := putDoc(t, c, "a", "http://o/w", 1000, 3)
	if len(ev) != 1 || ev[0].URL != document.TenantKey("a", "http://o/x") {
		t.Fatalf("evicted %v, want a's oldest lowest-H doc x", evictedURLs(ev))
	}
	if clock := c.policy.(*keyedPolicy).clock; clock != 1.0/1000 {
		t.Fatalf("clock L = %v after a tenant-scoped eviction, want %v", clock, 1.0/1000)
	}
	// With L raised, the new b document's H = L + 1/1000 = 1/500 tops
	// b/y's 1/600; an uninflated clock would rank it below.
	putDoc(t, c, "b", "http://o/n", 1000, 4)
	if top := c.Documents()[0]; top != document.TenantKey("b", "http://o/n") {
		t.Fatalf("highest keep-priority = %s, want the doc inserted after the clock rose", top)
	}
}

// tenantQuotaCache returns an LRU cache holding n entries of 100 bytes,
// half of tenant a (filling its quota exactly) and half of tenant b, and
// a ring of n/2+1 tenant-a copies whose first n/2 are resident: putting
// the ring in order from index n/2 always admits a non-resident copy and
// evicts a's least recently used one.
func tenantQuotaCache(n int) (*Cache, []document.Copy) {
	c := New("e", 0)
	c.SetTenantQuotas(quotaTable{"a": int64(n/2) * 100})
	ring := make([]document.Copy, n/2+1)
	for i := range ring {
		ring[i] = document.Copy{Doc: document.Document{URL: document.TenantKey("a", fmt.Sprintf("http://o/%d", i)), Size: 100, Version: 1}}
	}
	for i := 0; i < n/2; i++ {
		if _, err := c.Put(ring[i], int64(i)); err != nil {
			panic(err)
		}
		b := document.Copy{Doc: document.Document{URL: document.TenantKey("b", fmt.Sprintf("http://o/%d", i)), Size: 100, Version: 1}}
		if _, err := c.Put(b, int64(i)); err != nil {
			panic(err)
		}
	}
	return c, ring
}

// TestTenantEvictionCostFlat requires a Put that forces one tenant-scoped
// eviction to cost the same at 1k and 64k resident entries: the same
// allocation count, and bytes allocated that do not scale with residency
// (a whole-order scan would copy every resident key per eviction).
func TestTenantEvictionCostFlat(t *testing.T) {
	measure := func(n int) (allocs float64, bytesPerPut uint64) {
		c, ring := tenantQuotaCache(n)
		next := n / 2
		put := func() {
			ev, err := c.Put(ring[next%len(ring)], int64(next))
			if err != nil || len(ev) != 1 {
				t.Fatalf("put %d: evicted %d, err %v", next, len(ev), err)
			}
			next++
		}
		allocs = testing.AllocsPerRun(200, put)
		const puts = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < puts; i++ {
			put()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / puts
	}
	smallAllocs, smallBytes := measure(1 << 10)
	bigAllocs, bigBytes := measure(64 << 10)
	if smallAllocs != bigAllocs {
		t.Fatalf("allocs per evicting Put: %v at 1k resident, %v at 64k", smallAllocs, bigAllocs)
	}
	if bigBytes > 2*smallBytes+1024 {
		t.Fatalf("bytes per evicting Put: %d at 1k resident, %d at 64k", smallBytes, bigBytes)
	}
}

// BenchmarkPutTenantQuota measures a Put that pushes its tenant past its
// byte quota and so evicts one of the tenant's own entries, at several
// residency sizes. The cost should not grow with residency.
func BenchmarkPutTenantQuota(b *testing.B) {
	for _, n := range []int{1 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) {
			c, ring := tenantQuotaCache(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := n/2 + i
				if _, err := c.Put(ring[k%len(ring)], int64(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
