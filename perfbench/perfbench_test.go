package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cachecloud/internal/document"
	"cachecloud/internal/node"
)

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		wantV   int64
		ok      bool
	}{
		{n: 10000, wantPct: 99.9, wantV: 9990, ok: true},
		{n: 1000, wantPct: 99, wantV: 990, ok: true},
		{n: 999, wantPct: 95, wantV: 950, ok: true},
		{n: 100, wantPct: 90, wantV: 90, ok: true},
		{n: 20, wantPct: 50, wantV: 10, ok: true},
		{n: 19, ok: false},
	}
	for _, c := range cases {
		pct, v, ok := tail(seq(c.n))
		if ok != c.ok || pct != c.wantPct || v != c.wantV {
			t.Errorf("tail(1..%d) = p%g %d %v, want p%g %d %v", c.n, pct, v, ok, c.wantPct, c.wantV, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("tail(1..%d): only %d samples beyond p%g", c.n, beyond, pct)
			}
		}
	}
	if got := quantileOrTail(seq(500), 0.99); got != 475 {
		t.Errorf("quantileOrTail(1..500, .99) = %d, want the p95 value 475", got)
	}
	if got := quantileOrTail(seq(2000), 0.99); got != 1980 {
		t.Errorf("quantileOrTail(1..2000, .99) = %d, want 1980", got)
	}
	withFail := sortedCopy(append(seq(99), unbounded))
	if got := quantile(withFail, 1); got != unbounded {
		t.Errorf("a failed request must sort last, got max %d", got)
	}
}

func TestLinkAndSelfTime(t *testing.T) {
	gold := document.TenantKey("gold", "http://x/doc/1")
	spans := []Span{
		// 0: a miss /doc at node-00 and its sequential child RPCs.
		{Caller: "client", Target: "node-00", Op: "doc", Key: gold, Start: 0, End: 100, Source: "origin"},
		{Caller: "node-00", Target: "node-01", Op: "lookup", Key: gold, Start: 10, End: 30},
		{Caller: "node-00", Target: "origin", Op: "origin_fetch", Key: "http://x/doc/1", Start: 40, End: 70},
		{Caller: "node-00", Target: "node-01", Op: "register", Key: gold, Start: 75, End: 85},
		{Caller: "node-00", Target: "node-02", Op: "deregister", Key: "http://x/doc/9", Start: 86, End: 90},
		// 5: a publish fanned out origin → shield → beacon → holder.
		{Caller: "client", Target: "origin", Op: "publish", Key: "http://x/doc/2", Start: 0, End: 200},
		{Caller: "origin", Target: "shield-0", Op: "supdate", Key: "http://x/doc/2", Start: 10, End: 150},
		{Caller: "shield-0", Target: "node-01", Op: "update", Key: "http://x/doc/2", Start: 20, End: 140},
		{Caller: "node-01", Target: "node-02", Op: "apply", Key: "http://x/doc/2", Start: 30, End: 60},
		// 9: two overlapping /doc spans at node-03: a keyless deregister
		// inside both is ambiguous, a keyed lookup is not.
		{Caller: "client", Target: "node-03", Op: "doc", Key: "http://x/doc/a", Start: 0, End: 100, Source: "peer"},
		{Caller: "client", Target: "node-03", Op: "doc", Key: "http://x/doc/b", Start: 5, End: 95, Source: "peer"},
		{Caller: "node-03", Target: "node-04", Op: "deregister", Key: "http://x/doc/z", Start: 50, End: 60},
		{Caller: "node-03", Target: "node-04", Op: "lookup", Key: "http://x/doc/a", Start: 20, End: 30},
		// 13: an RPC no span contains.
		{Caller: "node-05", Target: "node-00", Op: "lookup", Key: "http://x/doc/1", Start: 500, End: 510},
	}
	tr := Link(spans)
	wantParent := map[int]int{1: 0, 2: 0, 3: 0, 4: 0, 6: 5, 7: 6, 8: 7, 11: 10, 12: 9, 13: -1}
	for child, p := range wantParent {
		if tr.Parent[child] != p {
			t.Errorf("span %d (%s): parent %d, want %d", child, spans[child].Op, tr.Parent[child], p)
		}
	}
	if tr.Root[8] != 5 || tr.Root[4] != 0 || tr.Root[13] != -1 {
		t.Errorf("roots: apply→%d deregister→%d orphan→%d, want 5 0 -1", tr.Root[8], tr.Root[4], tr.Root[13])
	}
	if tr.Self[0] != 100-20-30-10-4 || tr.Covered[0] != 64 {
		t.Errorf("miss doc self %d covered %d, want 36 and 64", tr.Self[0], tr.Covered[0])
	}
	if tr.Self[6] != 140-120 || tr.Self[7] != 120-30 {
		t.Errorf("supdate self %d, update self %d, want 20 and 90", tr.Self[6], tr.Self[7])
	}
	if tr.Ambiguous != 1 || tr.Unlinked != 1 {
		t.Errorf("ambiguous %d unlinked %d, want 1 and 1", tr.Ambiguous, tr.Unlinked)
	}
	v := make(map[string]float64)
	spanMetrics(v, tr)
	if v["rpc.apply.per_publish"] != 1 || v["rpc.supdate.per_publish"] != 1 || v["rpc.deregister.per_doc"] != 2.0/3 {
		t.Errorf("per-root counts: apply %v supdate %v deregister %v", v["rpc.apply.per_publish"], v["rpc.supdate.per_publish"], v["rpc.deregister.per_doc"])
	}
}

func TestUnionLenOverlaps(t *testing.T) {
	spans := []Span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}, {Start: 21, End: 22}}
	if got := unionLen(spans, []int{0, 1, 2, 3}); got != 25 {
		t.Errorf("unionLen = %d, want 25", got)
	}
}

// smokeSpec shrinks a live workload to a few hundred documents.
func smokeSpec(s liveSpec) liveSpec {
	s.docs, s.warmupOps = 300, 300
	return s
}

func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live clusters")
	}
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			var (
				res *result
				err error
			)
			if name == "sim-replay" {
				res, err = simWorkload(simSpec{caches: 4, rings: 2, units: 20, updates: 20, capFrac: 0.3, intraGen: 100}, defaultSeed, 0.2, traced)
			} else {
				res, err = liveWorkload(smokeSpec(liveSpecs[name]), 7, 0.4, traced, t.TempDir())
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(res.faults) > 0 || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: faults %v failed %d attempted %d", name, traced, res.faults, res.failed, res.attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var buf bytes.Buffer
			if err := writeResult(&buf, name, 7, 0, res, defs); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var out struct {
				Correct bool
				Metrics map[string]metricOut
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil || !out.Correct || len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: result line %q (err %v)", name, traced, lines[len(lines)-1], err)
			}
		}
	}
}

// TestChecksFail shows the output checks catch a wrong document, a
// version the origin never published, and a conservation gap.
func TestChecksFail(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live cluster")
	}
	spec := smokeSpec(liveSpecs["hot-read"])
	spec.prime = false
	docs := catalog(3, spec.docs)
	rec := NewRecorder()
	r, err := startLive(spec, docs, escapedURLs(docs), genOps(3, spec.warmupOps, spec.docs, clusterNodes, 0, spec.alpha, 0), rec, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	final, err := r.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if faults := r.check(final); len(faults) != 0 {
		t.Fatalf("clean run reported %v", faults)
	}

	r.g.maxSeen[0].Store(1 << 40)
	r.g.ok200.Add(1)
	faults := strings.Join(r.check(final), "\n")
	for _, want := range []string{"exceeds the origin", "the generator saw"} {
		if !strings.Contains(faults, want) {
			t.Errorf("check missed %q in %q", want, faults)
		}
	}

	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(node.DocResponse{Doc: document.Document{URL: "http://elsewhere/", Version: 1}, Source: "local"})
	}))
	defer liar.Close()
	g := newGenerator(docs, escapedURLs(docs), []string{liar.URL}, liar.URL, nil, rec)
	var cursor atomic.Int64
	g.run([]op{{doc: 1}}, &cursor, 1, 1, time.Time{})
	if g.nFault != 1 || !strings.Contains(g.faults[0], "answered with document") {
		t.Errorf("wrong-document reply not caught: %v", g.faults)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i])
		}
	}
}
