// Package node implements the cache cloud protocols as real networked
// services over net/http: edge-cache nodes that serve client requests,
// perform beacon-point duties for their intra-ring hash sub-ranges, and an
// origin node that publishes updates and periodically runs the sub-range
// determination process ("any beacon point within the beacon ring may
// execute this process" — here the origin does, and informs all caches and
// itself of the new assignments, exactly as Section 2.3 describes).
//
// The wire protocol is JSON over HTTP:
//
//	cache node
//	  GET  /doc?url=U          client entry point: serve, cooperate, place
//	  GET  /lookup?url=U       beacon duty: holder list + version
//	  POST /register           beacon duty: add a holder; drop the holder
//	                           from the URLs in "gone" (lazy deregistration)
//	  GET  /fetch?url=U        peer-to-peer copy transfer
//	  POST /update             beacon duty: receive origin update, fan out
//	  POST /apply              holder: apply a pushed update
//	  POST /reconcile          beacon duty: a holder's anti-entropy report,
//	                           with its pending "gone" entries
//	  POST /purge              beacon duty: broadcast a purge as /drop
//	  POST /drop               drop a purged copy and its record traces
//	  POST /subranges          install a new sub-range assignment
//	  GET  /subranges          this node's view of the assignment
//	  POST /records/import     receive migrated lookup records
//	  POST /records/replica    receive a sibling's lazy record replica
//	  POST /replicate          push this node's records to its sibling
//	  POST /loads/collect      report and reset cycle load counters
//	  POST /membership         receive the origin's dead-peer list
//	  POST /snapshot/save      persist a snapshot for a warm restart
//	  GET  /healthz            liveness probe
//	  GET  /stats, /metrics    node statistics
//
//	origin node
//	  GET  /fetch?url=U        group-miss fetch
//	  GET  /versions           document versions and purge generations
//	  POST /publish            apply an update and push it to beacons
//	  POST /purge              start a global or cloud-scoped purge
//	  POST /rebalance          run one sub-range determination cycle
//	  POST /replicate          trigger every node's lazy record replication
//	  POST /repair             run one failure-recovery pass
//	  POST /heartbeat          cache-node liveness beat
//	  GET  /stats, /metrics    origin statistics
//
// An evicted copy is not deregistered by a call of its own: the holder
// queues the URL for the beacon and the next /register (or /reconcile)
// to that beacon carries it in "gone". Until then the beacon lists a
// holder without the copy, which every reader of a holder list already
// tolerates (see DESIGN.md, "Lazy deregistration").
package node

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/obs"
	"cachecloud/internal/tenant"
)

// DeadlineHeader carries a request's remaining deadline budget in
// milliseconds. The transport stamps it from the caller's context on
// every outbound call and handlers derive their context from it, so a
// client deadline propagates hop by hop and queue waiters whose caller
// already gave up stop consuming slots.
const DeadlineHeader = "X-Cachecloud-Deadline-Ms"

// RetryAfterMsHeader carries a sub-second Retry-After hint on 429 shed
// replies, alongside the standard whole-second Retry-After header.
const RetryAfterMsHeader = "X-Cachecloud-Retry-After-Ms"

// TenantHeader carries the requesting tenant's ID on client-facing
// endpoints. The transport stamps it from the caller's context (see
// WithTenant) and handlers fold it into the document key, so every
// tenant's copies, lookup records, and update fan-outs live in a
// disjoint key space. Absent or empty means the default tenant.
const TenantHeader = "X-Cachecloud-Tenant"

// Subrange is one beacon point's inclusive IrH interval on the wire.
type Subrange struct {
	Node string `json:"node"`
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
}

// ClusterConfig is the static bootstrap configuration every node receives.
type ClusterConfig struct {
	// IntraGen is the intra-ring hash generator.
	IntraGen int `json:"intraGen"`
	// Rings lists the beacon-point node names of each ring in position
	// order; initial sub-ranges divide the range equally.
	Rings [][]string `json:"rings"`
	// Addrs maps node name to base URL (http://host:port).
	Addrs map[string]string `json:"addrs"`
	// OriginAddr is the origin node's base URL.
	OriginAddr string `json:"originAddr"`
	// CapacityBytes is each cache's byte budget (0 = unlimited).
	CapacityBytes int64 `json:"capacityBytes"`
	// UtilityPlacement selects the utility-based placement policy for the
	// cache nodes (ad hoc placement otherwise).
	UtilityPlacement bool `json:"utilityPlacement"`
	// MaxInflight caps the total weighted work units a node admits
	// concurrently across the three work classes (0 selects the default,
	// 64). It also bounds the adaptive origin-fetch limiter's ceiling at
	// MaxInflight/4.
	MaxInflight int `json:"maxInflight,omitempty"`
	// MissQueue caps queued miss-class (origin fetch) waiters; arrivals
	// past the cap are shed immediately (0 selects the default, 32).
	MissQueue int `json:"missQueue,omitempty"`
	// LimitMode selects the adaptive origin-fetch concurrency law:
	// "aimd" (default), "gradient", or "fixed".
	LimitMode string `json:"limitMode,omitempty"`
	// StoreDir, when non-empty, is the directory root for the durable
	// cache tier: each node persists its admitted documents into
	// StoreDir/<node-name> and boots warm from it after a restart
	// (replay + beacon revalidation instead of origin refetch). Empty
	// keeps nodes memory-only.
	StoreDir string `json:"storeDir,omitempty"`
	// Fsync selects the durable tier's flush policy: "rotate" (default),
	// "always", or "never". Ignored when StoreDir is empty.
	Fsync string `json:"fsync,omitempty"`
	// Shields lists the shield-tier cache names, in no particular order
	// (routing sorts them). Empty runs the classic single-tier layout:
	// cache misses and origin updates go straight between the cloud and
	// the origin. Non-empty interposes the shield tier: cloud misses
	// resolve cloud → shield → origin and the origin fans one update per
	// shield instead of one per cloud.
	Shields []string `json:"shields,omitempty"`
	// ShieldAddrs maps shield name to base URL.
	ShieldAddrs map[string]string `json:"shieldAddrs,omitempty"`
	// CloudID names this cache cloud inside the shield tier. Shield-ring
	// placement hashes it exactly as a URL hashes into a beacon ring
	// (default "cloud0"). Ignored when Shields is empty.
	CloudID string `json:"cloudID,omitempty"`
	// Tenants, when non-empty, turns on multi-tenant admission and
	// residency quotas: each entry maps a tenant ID to its weighted fair
	// share of MaxInflight and its resident-byte cap. Tenants absent from
	// the map are admitted within leftover capacity and store without a
	// byte cap; the default (empty-ID) tenant is always uncapped.
	Tenants map[string]tenant.Quota `json:"tenants,omitempty"`
	// Clock is the time source nodes built from this config run on. Nil
	// selects the wall clock; the deterministic simulation harness
	// injects a virtual clock here. Never serialised.
	Clock Clock `json:"-"`
	// Tracer, when non-nil, receives protocol events from nodes built
	// from this config — including durable-store recovery events that
	// fire during construction, before SetTracer could run. Never
	// serialised.
	Tracer *obs.Tracer `json:"-"`
	// ReconcileInterval, when positive, makes LocalCluster run every
	// cache node's StartReconcile loop at this period; zero leaves the
	// loop off. The pass also flushes pending lazy deregistrations, so
	// the period bounds how long a beacon lists an evicted copy. A
	// cmd/cachenode process takes its period from -reconcile instead.
	// Never serialised.
	ReconcileInterval time.Duration `json:"-"`
}

// Assignments carries the complete sub-range layout of all rings.
type Assignments struct {
	Rings [][]Subrange `json:"rings"`
}

// equalSplit builds the initial assignment: each ring's range divided
// equally among its beacon points.
func equalSplit(cfg ClusterConfig) Assignments {
	a := Assignments{Rings: make([][]Subrange, len(cfg.Rings))}
	for r, members := range cfg.Rings {
		n := len(members)
		lo := 0
		for i, m := range members {
			hi := (i + 1) * cfg.IntraGen / n
			if i == n-1 {
				hi = cfg.IntraGen
			}
			a.Rings[r] = append(a.Rings[r], Subrange{Node: m, Lo: lo, Hi: hi - 1})
			lo = hi
		}
	}
	return a
}

// ownerOf resolves the beacon node for a URL under an assignment.
func (a Assignments) ownerOf(url string, intraGen int) (string, error) {
	if len(a.Rings) == 0 {
		return "", fmt.Errorf("node: empty assignment")
	}
	h := document.HashURL(url)
	ringIdx := h.RingIndex(len(a.Rings))
	irh := h.IrH(intraGen)
	for _, s := range a.Rings[ringIdx] {
		if irh >= s.Lo && irh <= s.Hi {
			return s.Node, nil
		}
	}
	return "", fmt.Errorf("node: no beacon covers IrH %d in ring %d", irh, ringIdx)
}

// Owner resolves the beacon node responsible for a URL under this
// assignment (exported for the simulation harness's invariant checks).
func (a Assignments) Owner(url string, intraGen int) (string, error) {
	return a.ownerOf(url, intraGen)
}

// ringOf returns the index of the ring containing the node, or -1.
func (a Assignments) ringOf(nodeName string) int {
	for r, subs := range a.Rings {
		for _, s := range subs {
			if s.Node == nodeName {
				return r
			}
		}
	}
	return -1
}

// LookupResponse answers GET /lookup. The beacon piggybacks its monitored
// cloud-wide lookup and update rates so the requester can evaluate the
// utility function without extra round trips.
type LookupResponse struct {
	Holders    []string         `json:"holders"`
	Version    document.Version `json:"version"`
	LookupRate float64          `json:"lookupRate"`
	UpdateRate float64          `json:"updateRate"`
}

// RegisterRequest is the body of POST /register: Node now holds URL.
// Gone piggybacks the lazy deregistrations Node owes this beacon — URLs
// it evicted since its last successful call here. The beacon drops Node
// from each of them before adding it to URL.
type RegisterRequest struct {
	URL  string   `json:"url"`
	Node string   `json:"node"`
	Gone []string `json:"gone,omitempty"`
}

// FetchResponse answers GET /fetch.
type FetchResponse struct {
	Doc document.Document `json:"doc"`
	// PurgeGen is the origin's purge generation for the URL at serve
	// time. Shields record it so a later /versions comparison can tell a
	// legitimately re-fetched copy from one that missed a global purge.
	PurgeGen int64 `json:"purgeGen,omitempty"`
}

// UpdateRequest is the body of POST /update and /apply. On /apply the
// beacon piggybacks its monitored rates so the holder can re-evaluate
// whether the copy is still worth its consistency-maintenance cost.
type UpdateRequest struct {
	Doc        document.Document `json:"doc"`
	LookupRate float64           `json:"lookupRate,omitempty"`
	UpdateRate float64           `json:"updateRate,omitempty"`
	Replicas   int               `json:"replicas,omitempty"`
}

// UpdateResponse answers POST /update.
type UpdateResponse struct {
	Notified int `json:"notified"`
}

// DocResponse answers the client-facing GET /doc.
type DocResponse struct {
	Doc document.Document `json:"doc"`
	// Source reports where the copy came from: "local", "peer", "origin".
	Source string `json:"source"`
	// Stored reports whether the node kept a copy.
	Stored bool `json:"stored"`
	// FailedOver reports that the document's beacon was unreachable and
	// the lookup was answered by its ring sibling's lazy replica.
	FailedOver bool `json:"failedOver,omitempty"`
	// Degraded reports that no beacon was reachable and the request fell
	// through to a direct origin fetch.
	Degraded bool `json:"degraded,omitempty"`
}

// WireRecord is one lookup record in transit during migration.
type WireRecord struct {
	URL     string           `json:"url"`
	Holders []string         `json:"holders"`
	Version document.Version `json:"version"`
}

// RecordsImport is the body of POST /records/import and /records/replica.
// Reset (replica pushes only) tells the receiver to drop its existing
// replica set first: the payload is a full snapshot of the sender's
// records, so anything not in it is stale and must not be promoted later.
type RecordsImport struct {
	Records []WireRecord `json:"records"`
	Reset   bool         `json:"reset,omitempty"`
	// From names the sending node (replica pushes only); Reset drops the
	// receiver's existing replicas from that sender before importing.
	From string `json:"from,omitempty"`
}

// ReconcileEntry is one held copy a holder reports during the
// anti-entropy reconcile pass.
type ReconcileEntry struct {
	URL     string           `json:"url"`
	Version document.Version `json:"version"`
}

// ReconcileRequest is the body of the beacon POST /reconcile: a holder
// reporting every copy it stores whose beacon duty falls on the target.
// Gone carries the holder's pending lazy deregistrations for the target,
// as on /register; they are applied before the entries.
type ReconcileRequest struct {
	Node    string           `json:"node"`
	Entries []ReconcileEntry `json:"entries"`
	Gone    []string         `json:"gone,omitempty"`
}

// ReconcileResult is the beacon's verdict on one reported copy. Keep is
// false when the copy is staler than the version the beacon has already
// fanned out — the holder must drop it. Version is the beacon's record
// version after folding the report in. Owned is false when the beacon no
// longer covers the URL's sub-range (the holder should retry after the
// next assignment install reaches it).
type ReconcileResult struct {
	URL     string           `json:"url"`
	Version document.Version `json:"version"`
	Owned   bool             `json:"owned"`
	Keep    bool             `json:"keep"`
}

// ReconcileResponse answers POST /reconcile.
type ReconcileResponse struct {
	Results []ReconcileResult `json:"results"`
}

// LoadReport answers POST /loads/collect: per-IrH-value loads for the
// node's owned sub-ranges in every ring, reset after reporting.
type LoadReport struct {
	Node   string          `json:"node"`
	Total  int64           `json:"total"`
	PerIrH map[int][]int64 `json:"perIrH"` // ring → dense [intraGen]int64
}

// PublishRequest is the body of the origin's POST /publish.
type PublishRequest struct {
	URL string `json:"url"`
}

// PublishResponse answers POST /publish.
type PublishResponse struct {
	Version  document.Version `json:"version"`
	Notified int              `json:"notified"`
	// ShieldsNotified counts shields the update reached — exactly one
	// versioned update per reachable shield per publish (0 in the
	// single-tier layout).
	ShieldsNotified int `json:"shieldsNotified,omitempty"`
}

// Shield-tier wire protocol. The shield tier reuses the beacon-ring
// machinery recursively: shields form their own ring whose intra-ring
// hash range is keyed by cloud IDs, so each cloud has an owning shield
// and failover walks the ring order.

// Purge scopes accepted by POST /purge and /spurge.
const (
	// PurgeScopeGlobal evicts the document from every shield and every
	// cloud (a global-edge purge).
	PurgeScopeGlobal = "global"
	// PurgeScopeCloud evicts one cloud's copies and cancels its
	// subscriptions; the shield tier keeps serving everyone else.
	PurgeScopeCloud = "cloud"
)

// ShieldFetchResponse answers a shield's GET /sfetch.
type ShieldFetchResponse struct {
	Doc document.Document `json:"doc"`
	// ShieldHit reports whether the shield served from its own copy
	// without an origin round trip.
	ShieldHit bool `json:"shieldHit,omitempty"`
}

// ShieldUpdateResponse answers a shield's POST /supdate.
type ShieldUpdateResponse struct {
	// Held reports whether the shield held (and refreshed) a copy.
	Held bool `json:"held"`
	// CloudsNotified sums the holder notifications of every cloud beacon
	// this shield fanned the update to.
	CloudsNotified int `json:"cloudsNotified"`
}

// PurgeRequest is the body of the origin's POST /purge, a shield's POST
// /spurge, and a cache node's POST /purge and /drop.
type PurgeRequest struct {
	URL string `json:"url"`
	// Scope is PurgeScopeGlobal or PurgeScopeCloud.
	Scope string `json:"scope"`
	// Cloud names the target cloud for PurgeScopeCloud.
	Cloud string `json:"cloud,omitempty"`
	// Gen is the origin's purge generation for the URL (global purges);
	// shields record it so a missed purge is reconciled after heal.
	Gen int64 `json:"gen,omitempty"`
}

// PurgeResponse answers the purge endpoints.
type PurgeResponse struct {
	// ShieldsNotified counts shields the origin forwarded the purge to.
	ShieldsNotified int `json:"shieldsNotified,omitempty"`
	// Dropped counts edge copies actually evicted downstream.
	Dropped int `json:"dropped"`
}

// VersionsResponse answers the origin's GET /versions: the ground-truth
// document versions and per-URL global purge generations shields resync
// against (the tier-level analogue of /reconcile).
type VersionsResponse struct {
	Versions map[string]document.Version `json:"versions"`
	PurgeGen map[string]int64            `json:"purgeGen,omitempty"`
}

// ShieldStats answers a shield's GET /stats.
type ShieldStats struct {
	Shield        string `json:"shield"`
	HeldDocs      int    `json:"heldDocs"`
	Subscriptions int    `json:"subscriptions"`
	Fetches       int64  `json:"fetches"`
	ShieldHits    int64  `json:"shieldHits"`
	OriginFetches int64  `json:"originFetches"`
	UpdatesIn     int64  `json:"updatesIn"`
	UpdatesFanned int64  `json:"updatesFanned"`
	Purges        int64  `json:"purges"`
	ResyncDrops   int64  `json:"resyncDrops"`
	WarmBoot      bool   `json:"warmBoot,omitempty"`
	WarmRecovered int    `json:"warmRecovered,omitempty"`
}

// RebalanceResponse answers the origin's POST /rebalance.
type RebalanceResponse struct {
	Moves       int `json:"moves"`
	RecordsSent int `json:"recordsSent"`
}

// CacheStats answers a cache node's GET /stats.
type CacheStats struct {
	Node        string  `json:"node"`
	StoredDocs  int     `json:"storedDocs"`
	UsedBytes   int64   `json:"usedBytes"`
	LocalHits   int64   `json:"localHits"`
	PeerHits    int64   `json:"peerHits"`
	OriginMiss  int64   `json:"originMiss"`
	BeaconOps   int64   `json:"beaconOps"`
	HitRate     float64 `json:"hitRate"`
	RecordsHeld int     `json:"recordsHeld"`
	// FailedOver counts lookups answered by a ring sibling's lazy replica
	// after the owning beacon was unreachable.
	FailedOver int64 `json:"failedOver"`
	// Degraded counts requests that fell through to a direct origin fetch
	// because no beacon was reachable.
	Degraded int64 `json:"degraded"`
	// DownPeers is the number of peers currently marked dead by the origin.
	DownPeers int `json:"downPeers"`
	// Requests counts client /doc requests accepted for processing.
	// Conservation: Requests == Served + Shed + Failed once the node is
	// quiescent (nothing queued or in flight).
	Requests int64 `json:"requests"`
	// Served counts /doc requests answered with a document.
	Served int64 `json:"served"`
	// Shed counts /doc requests deliberately refused by the overload
	// layer (HTTP 429 + Retry-After) — counted separately from failures.
	Shed int64 `json:"shed"`
	// Failed counts /doc requests that errored (bad gateway, timeout).
	Failed int64 `json:"failed"`
	// OriginFetches counts actual origin wire fetches after coalescing.
	OriginFetches int64 `json:"originFetches"`
	// Coalesced counts misses that joined an in-flight origin fetch
	// instead of issuing their own (singleflight waiters).
	Coalesced int64 `json:"coalesced"`
	// LimitNow is the adaptive origin-fetch concurrency limit right now.
	LimitNow int `json:"limitNow"`
	// WarmBoot reports that this node recovered entries from its durable
	// tier at construction (false = cold boot or memory-only).
	WarmBoot bool `json:"warmBoot,omitempty"`
	// WarmRecovered is how many entries the durable tier replayed into
	// the cache at boot.
	WarmRecovered int `json:"warmRecovered,omitempty"`
	// WarmRevalidated counts recovered copies confirmed fresh by the
	// beacons (kept and re-registered); WarmDropped counts recovered
	// copies the beacons ruled stale (dropped + tombstoned). Revalidation
	// issues zero origin fetches.
	WarmRevalidated int64 `json:"warmRevalidated,omitempty"`
	WarmDropped     int64 `json:"warmDropped,omitempty"`
	// StoreTruncations / StoreCompactions / StoreSegments / StoreBytes
	// summarise the durable tier's log health (all zero when
	// memory-only).
	StoreTruncations int64 `json:"storeTruncations,omitempty"`
	StoreCompactions int64 `json:"storeCompactions,omitempty"`
	StoreSegments    int   `json:"storeSegments,omitempty"`
	StoreBytes       int64 `json:"storeBytes,omitempty"`
	// DurableErrors counts disk-tier mutations that failed (the cache
	// keeps serving; durability degrades).
	DurableErrors int64 `json:"durableErrors,omitempty"`
	// ShieldFetches counts upstream misses resolved through the shield
	// tier; ShieldHits the subset the shield answered from its own copy.
	// ShieldFailover counts fetches served by a non-owner shield after
	// ring-order failover, ShieldDegraded direct-origin fetches taken
	// while every shield was unreachable. All zero in single-tier runs.
	ShieldFetches  int64 `json:"shieldFetches,omitempty"`
	ShieldHits     int64 `json:"shieldHits,omitempty"`
	ShieldFailover int64 `json:"shieldFailover,omitempty"`
	ShieldDegraded int64 `json:"shieldDegraded,omitempty"`
	// Tenants breaks the conservation counters down per tenant when
	// multi-tenant admission is configured. Conservation holds per tenant:
	// Requests == Served + Shed + Failed at quiescence for every entry.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's slice of a cache node's /stats.
type TenantStats struct {
	// Requests/Served/Shed/Failed are the per-tenant conservation
	// counters over client /doc requests.
	Requests int64 `json:"requests"`
	Served   int64 `json:"served"`
	Shed     int64 `json:"shed"`
	Failed   int64 `json:"failed"`
	// Share is the tenant's current weighted fair share of MaxInflight.
	Share int `json:"share"`
	// ResidentBytes is the tenant's resident bytes in this node's cache.
	ResidentBytes int64 `json:"residentBytes"`
}

// OriginStats answers the origin node's GET /stats.
type OriginStats struct {
	Documents   int   `json:"documents"`
	Fetches     int64 `json:"fetches"`
	Updates     int64 `json:"updates"`
	BytesServed int64 `json:"bytesServed"`
	Rebalances  int64 `json:"rebalances"`
	// Repairs counts failure-recovery passes that removed at least one node.
	Repairs int64 `json:"repairs"`
	// Heartbeats counts beats received from cache nodes.
	Heartbeats int64 `json:"heartbeats"`
	// NodesDown is the number of nodes currently declared dead.
	NodesDown int `json:"nodesDown"`
	// RecordsLost sums the lookup records reported held by nodes at their
	// last heartbeat before being declared dead.
	RecordsLost int64 `json:"recordsLost"`
	// RecordsRecovered sums the sibling-replica promotions survivors
	// reported while installing repaired assignments.
	RecordsRecovered int64 `json:"recordsRecovered"`
	// Rejoins counts nodes re-admitted after being declared dead.
	Rejoins int64 `json:"rejoins"`
	// FetchInFlight is the number of /fetch requests being served right
	// now; FetchHighWater is the maximum observed concurrently. Under the
	// cache nodes' adaptive origin-fetch limiters the high water stays
	// bounded by the sum of their current limits even during a miss storm.
	FetchInFlight  int64 `json:"fetchInFlight"`
	FetchHighWater int64 `json:"fetchHighWater"`
}

// HeartbeatRequest is the body of the origin's POST /heartbeat: a cache
// node reporting it is alive, together with the cluster-view summary the
// origin uses for failure accounting (RecordsHeld is what would be lost
// if this node crashed right now).
type HeartbeatRequest struct {
	Node        string `json:"node"`
	Seq         int64  `json:"seq"`
	RecordsHeld int    `json:"recordsHeld"`
	StoredDocs  int    `json:"storedDocs"`
}

// HeartbeatResponse answers POST /heartbeat. Rejoined is set when the
// heartbeat came from a node previously declared dead and the origin has
// re-admitted it (new sub-range assignments follow on /subranges).
type HeartbeatResponse struct {
	Rejoined bool `json:"rejoined"`
}

// MembershipUpdate is the body of the cache-node POST /membership: the
// origin broadcasting which peers are currently considered dead, so nodes
// stop routing lookups and fetches at them during the detection window.
type MembershipUpdate struct {
	Down []string `json:"down"`
}

// SubrangesResponse answers POST /subranges: how many records the node
// handed off to new owners and how many it promoted from sibling replicas
// for ranges it now owns (the crash-recovery count).
type SubrangesResponse struct {
	MigratedOut int `json:"migratedOut"`
	Promoted    int `json:"promoted"`
}

// --- small HTTP helpers shared by both node kinds ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func readJSON(r *http.Request, v any) error {
	defer func() {
		_, _ = io.Copy(io.Discard, r.Body)
		_ = r.Body.Close()
	}()
	return json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(v)
}

// --- test and replay helpers: one-shot calls outside a Transport ---

// postJSON sends a JSON request and decodes the JSON reply into out (out
// may be nil), through the client's RoundTripper with its Timeout as the
// per-request deadline. New code should use a Transport instead.
func postJSON(client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("node: marshal %s: %w", url, err)
	}
	return doJSONURL(context.Background(), roundTripper(client), http.MethodPost, url, body, out, client.Timeout)
}

// getJSON performs a GET and decodes the JSON reply. A 404 returns
// errNotFound so callers can distinguish absence from failure.
func getJSON(client *http.Client, url string, out any) error {
	return doJSONURL(context.Background(), roundTripper(client), http.MethodGet, url, nil, out, client.Timeout)
}

// roundTripper returns the client's RoundTripper, or the default one.
func roundTripper(client *http.Client) http.RoundTripper {
	if client.Transport != nil {
		return client.Transport
	}
	return http.DefaultTransport
}
