package cache

import (
	"container/heap"
	"fmt"
	"sort"
)

// ReplacementKind selects the document replacement policy an edge cache
// uses when its disk fills. The paper's limited-disk experiments use LRU;
// LFU and GreedyDual-Size (Cao & Irani, the paper's reference [3]) are
// provided for the replacement-policy ablation.
type ReplacementKind int

const (
	// LRU evicts the least recently used document.
	LRU ReplacementKind = iota + 1
	// LFU evicts the least frequently used document (ties broken by
	// recency).
	LFU
	// GreedyDualSize evicts the document with the lowest H value, where
	// H = L + 1/size: small cost-per-byte documents with stale credit go
	// first and the clock L inflates to the evicted H.
	GreedyDualSize
)

// String implements fmt.Stringer.
func (k ReplacementKind) String() string {
	switch k {
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case GreedyDualSize:
		return "gds"
	default:
		return fmt.Sprintf("replacement(%d)", int(k))
	}
}

// replacementPolicy tracks stored documents and nominates eviction victims.
//
// Every policy ranks documents by (key, seq): key is the policy's priority
// (always 0 under LRU) and seq a cache-wide access sequence, so ranks are
// unique and order documents across tenants. The lowest rank is evicted
// first. Each policy keeps one order per tenant with resident documents,
// and each entry holds a handle to its own tenant's order: a
// tenant-scoped victim is the head of that tenant's order, a cache-wide
// victim the lowest-ranked head across the orders. An untenanted cache
// keeps a single order, so it pays nothing for tenancy.
//
// Implementations are not safe for concurrent use; Cache serialises calls
// under its own lock.
type replacementPolicy interface {
	// onInsert registers a newly stored document of the given tenant, or
	// refreshes the priority of one already stored.
	onInsert(url, tenant string, size int64)
	// onAccess records a hit on a stored document.
	onAccess(url string)
	// onRemove deregisters a document (eviction or explicit removal).
	onRemove(url string)
	// victim nominates the next document to evict, skipping exclude: the
	// lowest-ranked document of the tenant when scoped, of the whole
	// cache otherwise. The caller evicts the nominee. It returns false
	// when no evictable document remains.
	victim(exclude, tenant string, scoped bool) (string, bool)
	// ordered returns the stored URLs in decreasing keep-priority
	// (the document evicted last comes first).
	ordered() []string
}

// newReplacementPolicy constructs the policy for a kind (LRU by default).
func newReplacementPolicy(kind ReplacementKind) replacementPolicy {
	switch kind {
	case LFU:
		return newLFUPolicy()
	case GreedyDualSize:
		return newGDSPolicy()
	default:
		return newLRUPolicy()
	}
}

// tenantOrders holds a policy's per-tenant orders: by tenant for inserts
// and scoped victims, and as a dense slice for the cache-wide victim scan.
// An order is dropped once its tenant has nothing resident, so the scan
// visits only tenants that hold documents.
type tenantOrders[O comparable] struct {
	byTenant map[string]O
	all      []O
}

func (t *tenantOrders[O]) get(tenant string) (O, bool) {
	o, ok := t.byTenant[tenant]
	return o, ok
}

// of returns the tenant's order, creating it with mk on first use.
func (t *tenantOrders[O]) of(tenant string, mk func(tenant string) O) O {
	if o, ok := t.byTenant[tenant]; ok {
		return o
	}
	o := mk(tenant)
	if t.byTenant == nil {
		t.byTenant = make(map[string]O)
	}
	t.byTenant[tenant] = o
	t.all = append(t.all, o)
	return o
}

func (t *tenantOrders[O]) drop(tenant string) {
	o := t.byTenant[tenant]
	delete(t.byTenant, tenant)
	last := len(t.all) - 1
	for i, x := range t.all {
		if x == o {
			var zero O
			t.all[i], t.all[last] = t.all[last], zero
			t.all = t.all[:last]
			return
		}
	}
}

// rankedURL is one document and its rank, for ordered().
type rankedURL struct {
	key float64
	seq uint64
	url string
}

// byDecreasingRank sorts documents by decreasing keep-priority: highest
// (key, seq) first.
func byDecreasingRank(rs []rankedURL) []string {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].key != rs[j].key {
			return rs[i].key > rs[j].key
		}
		return rs[i].seq > rs[j].seq
	})
	urls := make([]string, len(rs))
	for i := range rs {
		urls[i] = rs[i].url
	}
	return urls
}

// --- LRU ---

// lruEntry is one stored document, linked into its tenant's recency list.
type lruEntry struct {
	url        string
	seq        uint64 // cache-wide access stamp: higher = more recent
	order      *lruOrder
	prev, next *lruEntry
}

// lruOrder is one tenant's recency list, a ring through the root
// sentinel: root.next is the most recently used entry, root.prev the
// tenant's next victim.
type lruOrder struct {
	tenant string
	root   lruEntry
}

func newLRUOrder(tenant string) *lruOrder {
	o := &lruOrder{tenant: tenant}
	o.root.prev, o.root.next = &o.root, &o.root
	return o
}

func (o *lruOrder) empty() bool { return o.root.next == &o.root }

func (o *lruOrder) pushFront(e *lruEntry) {
	e.prev, e.next = &o.root, o.root.next
	e.next.prev = e
	o.root.next = e
}

func (e *lruEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// head returns the tenant's least recently used entry other than
// exclude, or nil.
func (o *lruOrder) head(exclude string) *lruEntry {
	e := o.root.prev
	if e != &o.root && e.url == exclude {
		e = e.prev
	}
	if e == &o.root {
		return nil
	}
	return e
}

type lruPolicy struct {
	seq    uint64
	elems  map[string]*lruEntry
	orders tenantOrders[*lruOrder]
}

func newLRUPolicy() *lruPolicy {
	return &lruPolicy{elems: make(map[string]*lruEntry)}
}

// touch stamps the entry as the most recent access and moves it to the
// front of its tenant's list.
func (p *lruPolicy) touch(e *lruEntry) {
	p.seq++
	e.seq = p.seq
	e.unlink()
	e.order.pushFront(e)
}

func (p *lruPolicy) onInsert(url, tenant string, _ int64) {
	if e, ok := p.elems[url]; ok {
		p.touch(e)
		return
	}
	o := p.orders.of(tenant, newLRUOrder)
	p.seq++
	e := &lruEntry{url: url, seq: p.seq, order: o}
	o.pushFront(e)
	p.elems[url] = e
}

func (p *lruPolicy) onAccess(url string) {
	if e, ok := p.elems[url]; ok {
		p.touch(e)
	}
}

func (p *lruPolicy) onRemove(url string) {
	e, ok := p.elems[url]
	if !ok {
		return
	}
	e.unlink()
	delete(p.elems, url)
	if e.order.empty() {
		p.orders.drop(e.order.tenant)
	}
}

func (p *lruPolicy) victim(exclude, tenant string, scoped bool) (string, bool) {
	var best *lruEntry
	if scoped {
		if o, ok := p.orders.get(tenant); ok {
			best = o.head(exclude)
		}
	} else {
		for _, o := range p.orders.all {
			if e := o.head(exclude); e != nil && (best == nil || e.seq < best.seq) {
				best = e
			}
		}
	}
	if best == nil {
		return "", false
	}
	return best.url, true
}

func (p *lruPolicy) ordered() []string {
	rs := make([]rankedURL, 0, len(p.elems))
	for _, e := range p.elems {
		rs = append(rs, rankedURL{seq: e.seq, url: e.url})
	}
	return byDecreasingRank(rs)
}

// --- priority heaps shared by LFU and GDS ---

// heapEntry is one document in its tenant's keyed min-heap: the lowest
// (key, seq) pair is the tenant's next victim; seq breaks ties by
// insertion/access recency (older first).
type heapEntry struct {
	url   string
	key   float64
	seq   uint64
	idx   int
	size  int64
	order *keyedOrder
}

func (e *heapEntry) less(o *heapEntry) bool {
	if e.key != o.key {
		return e.key < o.key
	}
	return e.seq < o.seq
}

type entryHeap []*heapEntry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].less(h[j]) }
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *entryHeap) Push(x any) {
	e, ok := x.(*heapEntry)
	if !ok {
		return
	}
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// keyedOrder is one tenant's min-heap; its root is the tenant's next
// victim.
type keyedOrder struct {
	tenant string
	heap   entryHeap
}

func newKeyedOrder(tenant string) *keyedOrder { return &keyedOrder{tenant: tenant} }

// head returns the tenant's lowest-ranked entry other than exclude, or
// nil.
func (o *keyedOrder) head(exclude string) *heapEntry {
	h := o.heap
	if len(h) == 0 {
		return nil
	}
	if h[0].url != exclude {
		return h[0]
	}
	// The excluded entry is at the root: the better of its children is
	// next.
	best := -1
	for c := 1; c <= 2 && c < len(h); c++ {
		if best == -1 || h.Less(c, best) {
			best = c
		}
	}
	if best == -1 {
		return nil
	}
	return h[best]
}

type keyedPolicy struct {
	entries map[string]*heapEntry
	orders  tenantOrders[*keyedOrder]
	seq     uint64
	// rekeyInsert and rekeyAccess compute the new priority key.
	rekeyInsert func(p *keyedPolicy, e *heapEntry)
	rekeyAccess func(p *keyedPolicy, e *heapEntry)
	// onEvict lets GDS inflate its clock with the victim's key.
	onEvict func(p *keyedPolicy, e *heapEntry)
	clock   float64 // GDS L value, shared by every tenant's heap
}

func (p *keyedPolicy) nextSeq() uint64 {
	p.seq++
	return p.seq
}

func (p *keyedPolicy) onInsert(url, tenant string, size int64) {
	if e, ok := p.entries[url]; ok {
		e.size = size
		p.rekeyAccess(p, e)
		e.seq = p.nextSeq()
		heap.Fix(&e.order.heap, e.idx)
		return
	}
	o := p.orders.of(tenant, newKeyedOrder)
	e := &heapEntry{url: url, size: size, seq: p.nextSeq(), order: o}
	p.rekeyInsert(p, e)
	heap.Push(&o.heap, e)
	p.entries[url] = e
}

func (p *keyedPolicy) onAccess(url string) {
	e, ok := p.entries[url]
	if !ok {
		return
	}
	p.rekeyAccess(p, e)
	e.seq = p.nextSeq()
	heap.Fix(&e.order.heap, e.idx)
}

func (p *keyedPolicy) onRemove(url string) {
	e, ok := p.entries[url]
	if !ok {
		return
	}
	heap.Remove(&e.order.heap, e.idx)
	delete(p.entries, url)
	if len(e.order.heap) == 0 {
		p.orders.drop(e.order.tenant)
	}
}

// victim is the single eviction path for both scopes, so GDS inflates its
// clock on every eviction, tenant-scoped ones included.
func (p *keyedPolicy) victim(exclude, tenant string, scoped bool) (string, bool) {
	var best *heapEntry
	if scoped {
		if o, ok := p.orders.get(tenant); ok {
			best = o.head(exclude)
		}
	} else {
		for _, o := range p.orders.all {
			if e := o.head(exclude); e != nil && (best == nil || e.less(best)) {
				best = e
			}
		}
	}
	if best == nil {
		return "", false
	}
	if p.onEvict != nil {
		p.onEvict(p, best)
	}
	return best.url, true
}

func (p *keyedPolicy) ordered() []string {
	rs := make([]rankedURL, 0, len(p.entries))
	for _, e := range p.entries {
		rs = append(rs, rankedURL{key: e.key, seq: e.seq, url: e.url})
	}
	return byDecreasingRank(rs)
}

func newLFUPolicy() *keyedPolicy {
	p := &keyedPolicy{entries: make(map[string]*heapEntry)}
	p.rekeyInsert = func(_ *keyedPolicy, e *heapEntry) { e.key = 1 }
	p.rekeyAccess = func(_ *keyedPolicy, e *heapEntry) { e.key++ }
	return p
}

func newGDSPolicy() *keyedPolicy {
	p := &keyedPolicy{entries: make(map[string]*heapEntry)}
	h := func(p *keyedPolicy, e *heapEntry) {
		size := e.size
		if size < 1 {
			size = 1
		}
		// Uniform miss cost of 1 per document: H = L + 1/size, so large
		// documents with no recent credit are evicted first.
		e.key = p.clock + 1/float64(size)
	}
	p.rekeyInsert = h
	p.rekeyAccess = h
	p.onEvict = func(p *keyedPolicy, e *heapEntry) {
		if e.key > p.clock {
			p.clock = e.key
		}
	}
	return p
}
