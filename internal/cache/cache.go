// Package cache implements the edge cache: a byte-budgeted document store
// with pluggable replacement (LRU by default, as in the paper's
// limited-disk experiments; LFU and GreedyDual-Size for the replacement
// ablation) and the per-document access monitoring that feeds the
// utility-based placement scheme.
package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cachecloud/internal/document"
	"cachecloud/internal/loadstats"
)

// ErrTooLarge is returned when a document exceeds the cache's total
// capacity and can never be stored.
var ErrTooLarge = errors.New("cache: document larger than cache capacity")

// Durable is the disk tier the cache mirrors itself into when one is
// attached: every admission/refresh is persisted and every removal —
// including capacity evictions — is tombstoned, so a restart recovers
// exactly the set that was resident (no resurrection of evicted entries).
// Mutations are delivered in commit order by a drain loop that runs
// outside the cache lock, so a slow store operation (segment seal, log
// compaction) never stalls the serving path. Implemented by
// *durable.Store; kept as an interface here so the cache package stays
// free of filesystem concerns.
type Durable interface {
	Put(cp document.Copy) error
	Delete(url string) error
}

// accessHalfLife is the half-life (in time units) of the exponentially
// weighted access/eviction monitors. One hour of trace time.
const accessHalfLife = 60

// Cache is one edge cache. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	id       string
	capacity int64 // bytes; 0 means unlimited
	used     int64
	entries  map[string]document.Copy
	policy   replacementPolicy
	kind     ReplacementKind

	// Multi-tenant residency: resident bytes per tenant (derived from the
	// tenant-folded keys) and the optional quota table enforced on every
	// Put/ApplyUpdate. A tenant over its cap evicts only its own entries.
	tenantUsed map[string]int64
	quotas     TenantQuotas

	// monitors tracks access rates per document URL, including documents
	// that are not currently stored — the paper's placement scheme decides
	// using patterns "collected through continued monitoring".
	monitors   map[string]*loadstats.EWRate
	totalRate  *loadstats.EWRate // all accesses at this cache
	evictBytes *loadstats.EWRate // bytes evicted per unit (disk contention)
	hits       int64
	misses     int64

	// The disk tier is mirrored through an ordered mutation queue rather
	// than called under mu: mutating methods enqueue (cheap, under mu, so
	// queue order equals commit order) and drain after releasing mu. An
	// expensive store operation — a segment seal or a full log compaction
	// triggered by one Put — therefore blocks only the goroutine draining
	// the queue, never the serving path. qmu guards the queue, the
	// flushing flag, and the durable handle; nil durable means
	// memory-only. Persistence errors are counted, never surfaced: the
	// in-memory cache keeps serving while durability degrades.
	qmu         sync.Mutex
	durable     Durable
	durQueue    []durOp
	flushing    bool
	durableErrs atomic.Int64
}

// durOp is one queued disk-tier mutation: a tombstone when del is set,
// otherwise a put/refresh of cp.
type durOp struct {
	url string
	cp  document.Copy
	del bool
}

// New creates an edge cache with LRU replacement. capacity is the disk
// budget in bytes; 0 means unlimited (the paper's Figures 7 and 8 setup).
func New(id string, capacity int64) *Cache {
	return NewWithReplacement(id, capacity, LRU)
}

// NewWithReplacement creates an edge cache with an explicit replacement
// policy.
func NewWithReplacement(id string, capacity int64, kind ReplacementKind) *Cache {
	return &Cache{
		id:         id,
		capacity:   capacity,
		entries:    make(map[string]document.Copy),
		policy:     newReplacementPolicy(kind),
		kind:       kind,
		monitors:   make(map[string]*loadstats.EWRate),
		totalRate:  loadstats.NewEWRate(accessHalfLife),
		evictBytes: loadstats.NewEWRate(accessHalfLife),
	}
}

// ID returns the cache identifier.
func (c *Cache) ID() string { return c.id }

// Capacity returns the byte budget (0 = unlimited).
func (c *Cache) Capacity() int64 { return c.capacity }

// Replacement returns the replacement policy kind.
func (c *Cache) Replacement() ReplacementKind { return c.kind }

// SetDurable attaches the disk tier. Attach it after any warm-boot load
// (and after compacting the log to the surviving set), so recovery itself
// is not re-appended. Pass nil to detach; detaching discards mutations
// queued but not yet drained.
func (c *Cache) SetDurable(d Durable) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	c.durable = d
	if d == nil {
		c.durQueue = nil
	}
}

// DurableErrors returns how many disk-tier mutations failed. The cache
// keeps serving through persistence failures; this counter is the signal
// that durability has degraded.
func (c *Cache) DurableErrors() int64 {
	return c.durableErrs.Load()
}

// persist queues an admission/refresh for the disk tier. Caller holds mu.
func (c *Cache) persist(cp document.Copy) {
	c.enqueueDurable(durOp{url: cp.Doc.URL, cp: cp})
}

// tombstone queues a removal for the disk tier. Caller holds mu.
func (c *Cache) tombstone(url string) {
	c.enqueueDurable(durOp{url: url, del: true})
}

// enqueueDurable appends one mutation to the durable queue. Caller holds
// mu, which is what makes the queue order match the in-memory commit
// order; the mutating method drains with flushDurable after releasing mu.
func (c *Cache) enqueueDurable(o durOp) {
	c.qmu.Lock()
	if c.durable != nil {
		c.durQueue = append(c.durQueue, o)
	}
	c.qmu.Unlock()
}

// flushDurable drains queued disk-tier mutations in commit order. It runs
// without mu, so a log rotation or compaction inside the store blocks
// only this goroutine — concurrent reads and writes proceed, and their
// queued mutations are picked up by whichever drainer is active (the
// loop re-checks the queue after each batch, so nothing is stranded).
func (c *Cache) flushDurable() {
	c.qmu.Lock()
	for !c.flushing && len(c.durQueue) > 0 {
		c.flushing = true
		batch, d := c.durQueue, c.durable
		c.durQueue = nil
		c.qmu.Unlock()
		for _, o := range batch {
			var err error
			if o.del {
				err = d.Delete(o.url)
			} else {
				err = d.Put(o.cp)
			}
			if err != nil {
				c.durableErrs.Add(1)
			}
		}
		c.qmu.Lock()
		c.flushing = false
	}
	c.qmu.Unlock()
}

// Used returns the bytes currently stored.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of stored documents.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get looks up a document and, when present, refreshes its replacement
// priority. It always records the access in the monitoring state (hit or
// miss), so utility decisions can use the access history of documents the
// cache does not hold.
func (c *Cache) Get(url string, now int64) (document.Copy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeAccess(url, now)
	cp, ok := c.entries[url]
	if !ok {
		c.misses++
		return document.Copy{}, false
	}
	c.hits++
	c.policy.onAccess(url)
	return cp, true
}

// Peek returns the stored copy without touching replacement state or
// monitors.
func (c *Cache) Peek(url string) (document.Copy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, ok := c.entries[url]
	return cp, ok
}

// Has reports whether the document is stored.
func (c *Cache) Has(url string) bool {
	_, ok := c.Peek(url)
	return ok
}

// Put stores a copy, evicting documents chosen by the replacement policy
// as needed to fit the byte budget. It returns the evicted documents (so
// the caller can deregister them from their beacon points). Storing a
// document already present replaces it in place. Documents larger than the
// whole capacity are rejected with ErrTooLarge.
func (c *Cache) Put(cp document.Copy, now int64) ([]document.Document, error) {
	c.mu.Lock()
	size := cp.Doc.Size
	if c.capacity > 0 && size > c.capacity {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %q is %dB, capacity %dB", ErrTooLarge, cp.Doc.URL, size, c.capacity)
	}
	tenant := tenantOf(cp.Doc.URL)
	if err := c.checkTenantFit(tenant, size); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if old, ok := c.entries[cp.Doc.URL]; ok {
		c.used += size - old.Doc.Size
		c.noteTenantBytes(tenant, size-old.Doc.Size)
	} else {
		c.used += size
		c.noteTenantBytes(tenant, size)
	}
	c.entries[cp.Doc.URL] = cp
	c.policy.onInsert(cp.Doc.URL, tenant, size)
	c.persist(cp)
	evicted := c.makeTenantRoom(tenant, c.tenantQuotaOf(tenant), cp.Doc.URL, now)
	evicted = append(evicted, c.makeRoom(cp.Doc.URL, now)...)
	c.mu.Unlock()
	c.flushDurable()
	return evicted, nil
}

// makeRoom evicts policy victims (never the protected URL) until used fits
// capacity. Caller holds the lock.
func (c *Cache) makeRoom(protect string, now int64) []document.Document {
	if c.capacity <= 0 {
		return nil
	}
	var evicted []document.Document
	for c.used > c.capacity {
		doc, ok := c.evictOne(protect, "", false, now)
		if !ok {
			break
		}
		evicted = append(evicted, doc)
	}
	return evicted
}

// evictOne evicts the policy's next victim — cache-wide, or among the
// tenant's own entries when scoped — never the protected URL. It reports
// false when nothing evictable remains. Caller holds the lock.
func (c *Cache) evictOne(protect, tenant string, scoped bool, now int64) (document.Document, bool) {
	url, ok := c.policy.victim(protect, tenant, scoped)
	if !ok {
		return document.Document{}, false
	}
	victim := c.entries[url]
	c.removeLocked(url)
	c.evictBytes.Observe(now, float64(victim.Doc.Size))
	return victim.Doc, true
}

// Remove drops a document, returning whether it was present.
func (c *Cache) Remove(url string) bool {
	c.mu.Lock()
	_, ok := c.entries[url]
	if ok {
		c.removeLocked(url)
	}
	c.mu.Unlock()
	c.flushDurable()
	return ok
}

func (c *Cache) removeLocked(url string) {
	cp := c.entries[url]
	c.policy.onRemove(url)
	c.used -= cp.Doc.Size
	c.noteTenantBytes(tenantOf(url), -cp.Doc.Size)
	delete(c.entries, url)
	c.tombstone(url)
}

// ApplyUpdate refreshes the stored copy to the new document version if the
// cache holds the document. It reports whether the document was held. The
// updated copy keeps its replacement priority: an update is not a client
// access.
func (c *Cache) ApplyUpdate(doc document.Document, now int64) bool {
	c.mu.Lock()
	cp, ok := c.entries[doc.URL]
	if !ok || cp.Doc.Version >= doc.Version {
		c.mu.Unlock()
		return ok // absent, or already fresh
	}
	tenant := tenantOf(doc.URL)
	if c.checkTenantFit(tenant, doc.Size) != nil {
		// The update grew the document past its tenant's whole quota: the
		// copy can no longer be resident, so drop it and report not-held
		// (the core then prunes this cache from the holder list).
		c.removeLocked(doc.URL)
		c.mu.Unlock()
		c.flushDurable()
		return false
	}
	c.used += doc.Size - cp.Doc.Size
	c.noteTenantBytes(tenant, doc.Size-cp.Doc.Size)
	cp.Doc = doc
	cp.FetchedAt = now
	c.entries[doc.URL] = cp
	c.persist(cp)
	// A grown update can overflow the tenant quota or the byte budget.
	c.makeTenantRoom(tenant, c.tenantQuotaOf(tenant), doc.URL, now)
	c.makeRoom(doc.URL, now)
	c.mu.Unlock()
	c.flushDurable()
	return true
}

// Documents returns the URLs currently stored in decreasing keep-priority
// (most recently used first under LRU).
func (c *Cache) Documents() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy.ordered()
}

// observeAccess updates the monitoring state. Caller holds the lock.
func (c *Cache) observeAccess(url string, now int64) {
	m, ok := c.monitors[url]
	if !ok {
		m = loadstats.NewEWRate(accessHalfLife)
		c.monitors[url] = m
	}
	m.Observe(now, 1)
	c.totalRate.Observe(now, 1)
}

// AccessRate estimates the document's local accesses per time unit.
func (c *Cache) AccessRate(url string, now int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.monitors[url]
	if !ok {
		return 0
	}
	return m.Rate(now)
}

// MeanAccessRate estimates the mean per-document access rate over the
// documents currently stored (total cache access rate divided by the store
// size). The utility scheme's access-frequency component compares a
// document against this baseline.
func (c *Cache) MeanAccessRate(now int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	if n == 0 {
		n = 1
	}
	return c.totalRate.Rate(now) / float64(n)
}

// EvictionByteRate estimates bytes evicted per time unit — the cache's
// disk-space contention signal.
func (c *Cache) EvictionByteRate(now int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictBytes.Rate(now)
}

// HitsMisses returns the cumulative local hit and miss counts.
func (c *Cache) HitsMisses() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
