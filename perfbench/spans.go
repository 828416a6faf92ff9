package main

import (
	"context"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/node"
)

// Span names one timed call: a client /doc or /publish, or one
// inter-node RPC. Times are nanoseconds since the recorder's epoch.
type Span struct {
	Caller string // participant that made the call ("client" for the load generator)
	Target string // participant that served it
	Op     string // doc, publish, lookup, peer_fetch, origin_fetch, sfetch, register, deregister, supdate, update, apply
	Key    string // tenant-folded document key the call is about ("" when it names none)
	Start  int64
	End    int64
	Err    bool
	Source string // DocResponse.Source of a doc span
}

func (s *Span) dur() int64 { return s.End - s.Start }

// rawRPC is an RPC as the transport wrapper saw it; it is resolved into a
// Span after the run so the traced path does no parsing.
type rawRPC struct {
	caller  string
	rawurl  string
	bodyKey string
	start   int64
	end     int64
	err     bool
}

// Recorder keeps spans in memory while enabled. Client spans are added
// with AddClient, RPC spans by the transports Factory builds.
type Recorder struct {
	epoch   time.Time
	enabled atomic.Bool

	mu     sync.Mutex
	client []Span
	rpcs   []rawRPC
}

// NewRecorder returns a disabled recorder.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// now returns nanoseconds since the recorder epoch (monotonic).
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// AddClient records a client span when tracing is on.
func (r *Recorder) AddClient(s Span) {
	if !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	r.client = append(r.client, s)
	r.mu.Unlock()
}

// Factory returns a node.TransportFactory whose transports are the
// production node.NewHTTPTransport wrapped to record one span per RPC.
func (r *Recorder) Factory() node.TransportFactory {
	return func(name string) node.Transport {
		return &tracingTransport{name: name, inner: node.NewHTTPTransport(node.TransportOptions{}), rec: r}
	}
}

type tracingTransport struct {
	name  string
	inner node.Transport
	rec   *Recorder
}

func (t *tracingTransport) GetJSON(ctx context.Context, rawurl string, out any) error {
	if !t.rec.enabled.Load() {
		return t.inner.GetJSON(ctx, rawurl, out)
	}
	start := t.rec.now()
	err := t.inner.GetJSON(ctx, rawurl, out)
	t.rec.addRPC(rawRPC{caller: t.name, rawurl: rawurl, start: start, end: t.rec.now(), err: err != nil})
	return err
}

func (t *tracingTransport) PostJSON(ctx context.Context, rawurl string, in, out any) error {
	if !t.rec.enabled.Load() {
		return t.inner.PostJSON(ctx, rawurl, in, out)
	}
	start := t.rec.now()
	err := t.inner.PostJSON(ctx, rawurl, in, out)
	t.rec.addRPC(rawRPC{caller: t.name, rawurl: rawurl, bodyKey: bodyKey(in), start: start, end: t.rec.now(), err: err != nil})
	return err
}

func (r *Recorder) addRPC(s rawRPC) {
	r.mu.Lock()
	r.rpcs = append(r.rpcs, s)
	r.mu.Unlock()
}

// bodyKey returns the document key a typed request body names.
func bodyKey(in any) string {
	switch v := in.(type) {
	case node.RegisterRequest:
		return v.URL
	case node.UpdateRequest:
		return v.Doc.URL
	case node.PublishRequest:
		return v.URL
	}
	return ""
}

// Spans resolves the recorded RPCs against the cluster's address book
// (base URL → participant name) and returns client and RPC spans.
func (r *Recorder) Spans(addrs map[string]string) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	byHost := make(map[string]string, len(addrs))
	for name, base := range addrs {
		byHost[strings.TrimPrefix(base, "http://")] = name
	}
	out := append([]Span(nil), r.client...)
	for _, raw := range r.rpcs {
		u, err := url.Parse(raw.rawurl)
		if err != nil {
			continue
		}
		target := byHost[u.Host]
		key := raw.bodyKey
		if key == "" {
			key = u.Query().Get("url")
		}
		out = append(out, Span{
			Caller: raw.caller, Target: target, Op: rpcOp(u.Path, target),
			Key: key, Start: raw.start, End: raw.end, Err: raw.err,
		})
	}
	return out
}

// rpcOp names an RPC by its path; a /fetch is a peer fetch unless it
// targets the origin.
func rpcOp(path, target string) string {
	op := strings.TrimPrefix(path, "/")
	if op == "fetch" {
		if target == "origin" {
			return "origin_fetch"
		}
		return "peer_fetch"
	}
	return op
}

// parentOps are the calls whose handlers make RPCs of their own.
var parentOps = map[string]bool{"doc": true, "publish": true, "sfetch": true, "supdate": true, "update": true}

// keyless reports whether an RPC op names a document other than the one
// its parent request is about (an eviction's deregister); such spans are
// linked by caller and interval containment alone.
func keyless(op string) bool { return op == "deregister" }

// keyMatch reports whether a child call's key belongs to the parent's
// document: equal keys, or the unscoped URL of the parent's tenant-folded
// key (fetches to the origin travel unscoped).
func keyMatch(parent, child string) bool {
	if parent == child {
		return true
	}
	tid, plain := document.SplitTenantKey(parent)
	return tid != "" && plain == child
}

// Tree is the linked span set.
type Tree struct {
	Spans     []Span
	Parent    []int // index of the parent span, -1 for roots and unlinked RPCs
	Root      []int // index of the root client span, -1 when unlinked
	Self      []int64
	Covered   []int64 // time the span's children cover
	Ambiguous int     // links with more than one candidate parent
	Unlinked  int     // RPC spans with no candidate parent
}

// Link builds the span tree. A child RPC's parent is a span of one of
// parentOps whose target is the child's caller, whose key matches the child's (unless the child
// is keyless, when the parent must be a doc span), and whose interval
// contains the child's. Among several candidates the innermost (latest
// start) wins and the link counts as ambiguous. Self time is duration
// minus the union of the children's intervals.
func Link(spans []Span) *Tree {
	n := len(spans)
	t := &Tree{Spans: spans, Parent: make([]int, n), Root: make([]int, n), Self: make([]int64, n), Covered: make([]int64, n)}
	byTarget := make(map[string][]int)
	maxDur := make(map[string]int64)
	for i := range spans {
		s := &spans[i]
		byTarget[s.Target] = append(byTarget[s.Target], i)
		if d := s.dur(); d > maxDur[s.Target] {
			maxDur[s.Target] = d
		}
	}
	for _, idx := range byTarget {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	children := make([][]int, n)
	for i := range spans {
		c := &spans[i]
		t.Parent[i] = -1
		if c.Caller == "client" {
			continue
		}
		cands := byTarget[c.Caller]
		// Last candidate starting at or before the child.
		j := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > c.Start }) - 1
		best, found := -1, 0
		for ; j >= 0; j-- {
			p := &spans[cands[j]]
			if c.Start-p.Start > maxDur[c.Caller] {
				break
			}
			if cands[j] == i || p.End < c.End || !parentOps[p.Op] {
				continue
			}
			if keyless(c.Op) {
				if p.Op != "doc" {
					continue
				}
			} else if !keyMatch(p.Key, c.Key) {
				continue
			}
			found++
			if best < 0 {
				best = cands[j]
			}
		}
		if found == 0 {
			t.Unlinked++
			continue
		}
		if found > 1 {
			t.Ambiguous++
		}
		t.Parent[i] = best
		children[best] = append(children[best], i)
	}
	for i := range spans {
		t.Covered[i] = unionLen(spans, children[i])
		t.Self[i] = spans[i].dur() - t.Covered[i]
	}
	for i := range spans {
		t.Root[i] = t.rootOf(i)
	}
	return t
}

// rootOf follows parent links to a client span (-1 when the chain ends
// at an unlinked RPC). Link never makes a cycle: a parent contains its
// child and a span is never its own candidate, but equal intervals of
// two spans could point at each other, so the walk is bounded.
func (t *Tree) rootOf(i int) int {
	for steps := 0; steps <= len(t.Spans); steps++ {
		if t.Spans[i].Caller == "client" {
			return i
		}
		p := t.Parent[i]
		if p < 0 {
			return -1
		}
		i = p
	}
	return -1
}

// unionLen returns the total length of the union of the spans' intervals.
func unionLen(spans []Span, idx []int) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for k, i := range idx {
		iv[k] = [2]int64{spans[i].Start, spans[i].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
			continue
		}
		if v[1] > hi {
			hi = v[1]
		}
	}
	return total + hi - lo
}
