package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"cachecloud/internal/document"
)

// tracePairs is how many untraced/traced slice pairs a traced run
// alternates through, so host drift hits both sides alike.
const tracePairs = 5

// handlerProbeCalls is the number of in-process handler calls per probe
// repetition; probeStream is the key-stream length of the other probes.
const (
	handlerProbeCalls = 20000
	probeStream       = 1 << 16
)

// warmSalt derives the warm-up stream's seed from the workload seed, so
// warm-up and measured ops differ.
const warmSalt = 0x5eed

// liveWorkload runs one live workload: untraced, it measures the
// end-to-end metrics; traced, it alternates untraced and traced slices
// and reports the per-layer metrics.
func liveWorkload(spec liveSpec, seed int64, seconds float64, traced bool, scratch string) (*result, error) {
	docs := catalog(seed, spec.docs)
	esc := escapedURLs(docs)
	nt := len(spec.tenants)
	warm := genOps(seed^warmSalt, max(spec.warmupOps, 1), spec.docs, clusterNodes, nt, spec.alpha, spec.publishEvery)
	ops := genOps(seed, streamLen, spec.docs, clusterNodes, nt, spec.alpha, spec.publishEvery)
	rec := NewRecorder()
	r, setupS, err := bootLive(spec, docs, esc, warm, rec, traced, scratch)
	if err != nil {
		return nil, err
	}
	defer r.close()

	var cursor atomic.Int64
	phase := func(d time.Duration, on bool) (*tally, counters, error) {
		s0, err := r.snapshot()
		if err != nil {
			return nil, counters{}, err
		}
		rec.enabled.Store(on)
		t := r.g.run(ops, &cursor, callers, 0, time.Now().Add(d))
		rec.enabled.Store(false)
		s1, err := r.snapshot()
		if err != nil {
			return nil, counters{}, err
		}
		return t, diff(s0, s1), nil
	}
	untraced, spanned := newTally(), newTally()
	var uc, tc counters
	if !traced {
		t, c, err := phase(time.Duration(seconds*float64(time.Second)), false)
		if err != nil {
			return nil, err
		}
		untraced.merge(t)
		uc = c
	} else {
		slice := time.Duration(seconds / tracePairs * float64(time.Second))
		for k := 0; k < tracePairs; k++ {
			for _, on := range [2]bool{k%2 == 1, k%2 == 0} {
				t, c, err := phase(slice, on)
				if err != nil {
					return nil, err
				}
				if on {
					spanned.merge(t)
					tc.add(c)
				} else {
					untraced.merge(t)
					uc.add(c)
				}
			}
		}
	}
	final, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	res := &result{faults: r.check(final), values: make(map[string]float64)}
	all := newTally()
	all.merge(untraced)
	all.merge(spanned)
	res.attempted = all.docs + all.pubs
	res.failed = all.docFailed + all.pubFailed

	docLat := sortedCopy(untraced.docLat)
	pubLat := sortedCopy(untraced.pubLat)
	docRPS := ratio(float64(untraced.docs-untraced.docFailed), untraced.elapsed.Seconds())
	served := func(t *tally, src string) float64 { return float64(len(t.bySource[src])) }
	hitRatio := ratio(served(all, "local")+served(all, "peer"), float64(all.docs))
	var ac counters
	ac.add(uc)
	ac.add(tc)
	originPerK := 1000 * ratio(float64(ac.originFetches), float64(all.docs))
	failedFrac := ratio(float64(res.failed), float64(res.attempted))
	res.report = append(res.report,
		"# end-to-end figures (tracing off):",
		line("doc_rps", docRPS, "req/s"),
		line("doc_p50_us", us(quantile(docLat, 0.5)), "us"),
		line("doc_p99_us", us(quantileOrTail(docLat, 0.99)), "us"),
		tailLine("doc", docLat),
		line("cloud_hit_ratio", hitRatio, "ratio"),
		line("origin_fetches_per_kreq", originPerK, "count"),
		line("failed_frac", failedFrac, "ratio"),
		line("setup_s", setupS, "s"),
	)
	if spec.publishEvery > 0 {
		res.report = append(res.report,
			line("publish_p50_us", us(quantile(pubLat, 0.5)), "us"),
			line("publish_p99_us", us(quantileOrTail(pubLat, 0.99)), "us"),
			tailLine("publish", pubLat))
	}
	if untraced.stale+spanned.stale > 0 {
		res.report = append(res.report, fmt.Sprintf("# finding: %d /doc replies carried a version older than one /publish had already acknowledged (consistency.stale_serves)", untraced.stale+spanned.stale))
	}

	if !traced {
		// The end-to-end figures are medians over one-second windows, so a
		// burst of host noise moves one window, not the run.
		rates, p50s := untraced.windows(max(1, int(math.Round(seconds))))
		heap := heapMiB()
		res.report = append(res.report,
			line("heap_mb", heap, "MiB"),
			fmt.Sprintf("# %d one-second windows: /doc rps %.0f", len(rates), rates),
			fmt.Sprintf("# %d one-second windows: /doc p50 us %.1f", len(p50s), p50s))
		res.values["ops_per_s"] = medianF(rates)
		res.values["op_p50_us"] = medianF(p50s)
		res.values["cloud_hit_ratio"] = hitRatio
		res.values["setup_s"] = setupS
		res.values["heap_mb"] = heap
		return res, nil
	}

	v := res.values
	zeroSimOnly(v)
	tree := Link(rec.Spans(r.addrBook()))
	res.report = append(res.report, spanMetrics(v, tree))
	v["tracing.overhead_frac"] = 0
	if spanned.docs > 0 && untraced.elapsed > 0 {
		tracedRPS := ratio(float64(spanned.docs-spanned.docFailed), spanned.elapsed.Seconds())
		v["tracing.overhead_frac"] = 1 - ratio(tracedRPS, docRPS)
	}

	for _, src := range []string{"local", "peer", "origin"} {
		v["node."+src+"_p50_us"] = us(quantile(sortedCopy(untraced.bySource[src]), 0.5))
		v["node."+src+"_frac"] = ratio(served(all, src), float64(all.docs))
	}
	misses := float64(all.misses)
	reqs := float64(ac.requests)
	v["admit.coalesced_per_kmiss"] = 1000 * ratio(float64(ac.coalesced), misses)
	v["admit.shed_per_kreq"] = 1000 * ratio(float64(ac.shed), reqs)
	gateQueued := 0
	for _, cn := range r.lc.Caches {
		gateQueued += cn.Admission().GateQueued
	}
	v["admit.gate_queued"] = float64(gateQueued)
	v["tenant.shed_per_kreq"] = 1000 * ratio(float64(ac.tenantShed), reqs)
	v["tenant.quota_fill"] = r.quotaFill(final)
	v["cache.fill_frac"] = r.fillFrac(final)
	v["placement.store_frac"] = ratio(float64(all.stored), misses)
	v["shield.hit_ratio"] = ratio(float64(ac.shieldHits), float64(ac.shieldFetches))
	// Fan-out per publish over the traced slices, where the spans'
	// rpc.*.per_publish count the same publishes.
	v["shield.clouds_notified_per_publish"] = ratio(float64(tc.shieldFanned), float64(spanned.pubs))
	v["shield.updates_in_per_publish"] = ratio(float64(tc.shieldUpdatesIn), float64(spanned.pubs))
	pubs := float64(all.pubs)
	v["origin.publish_server_p50_us"] = 0
	if spec.publishEvery > 0 {
		v["origin.publish_server_p50_us"] = 1000 * r.lc.Origin.Metrics().Histogram("publish_ms", nil).Quantile(0.5)
	}
	v["origin.bytes_out_per_req"] = ratio(float64(ac.originBytes), float64(all.docs+all.pubs))
	v["origin.fetches_per_kreq"] = originPerK
	v["durable.bytes_per_publish"] = ratio(float64(ac.storeBytes), pubs)
	v["durable.compactions"] = float64(ac.compactions)
	v["consistency.stale_serves"] = float64(all.stale)
	uops := float64(untraced.docs + untraced.pubs)
	v["runtime.allocs_per_req"] = ratio(float64(uc.mallocs), uops)
	v["runtime.gc_per_kreq"] = 1000 * ratio(float64(uc.gcs), uops)
	v["client.doc_rps"] = docRPS
	v["client.doc_p99_us"] = us(quantileOrTail(docLat, 0.99))
	v["client.doc_samples"] = float64(len(docLat))
	v["client.publish_p50_us"] = us(quantile(pubLat, 0.5))
	v["client.publish_p99_us"] = us(quantileOrTail(pubLat, 0.99))
	v["client.publish_samples"] = float64(len(pubLat))
	v["client.failed_frac"] = failedFrac

	// Standalone probes and the in-process handler run last: the handler
	// probe serves real requests, so conservation was checked before it.
	ks := liveKeyStream(spec, ops, docs, r.capacity)
	p := probeLayers(ks)
	if ns, allocs, ok := probeHandler(r.lc.Caches[r.names[0]], handlerProbeCalls); ok {
		p.handler, p.handlerAllocs = ns, allocs
	} else {
		res.faults = append(res.faults, "in-process hit handler probe: no local hit to serve, or a non-200 reply")
	}
	layerValues(v, p)
	v["node.hit_handler_ns"] = p.handler
	v["node.hit_handler_allocs"] = p.handlerAllocs
	res.report = append(res.report, ladder(v, p, nt > 0)...)
	return res, nil
}

// quantileOrTail returns the q-quantile when at least ten samples lie
// beyond it, else the highest percentile that has ten beyond it.
func quantileOrTail(sorted []int64, q float64) int64 {
	if n := len(sorted); n-atOrBelow(q, n) >= 10 {
		return quantile(sorted, q)
	}
	_, v, _ := tail(sorted)
	return v
}

// line formats one report figure.
func line(name string, v float64, unit string) string {
	return fmt.Sprintf("  %-38s %14.6g %s", name, v, unit)
}

// tailLine reports the highest percentile with ten samples beyond it.
func tailLine(what string, sorted []int64) string {
	pct, v, ok := tail(sorted)
	if !ok {
		return fmt.Sprintf("  %s tail: fewer than ten samples beyond the median (n=%d)", what, len(sorted))
	}
	return fmt.Sprintf("  %-38s %14.6g us (p%g, n=%d)", fmt.Sprintf("%s_p%g_us", what, pct), us(v), pct, len(sorted))
}

// heapMiB is the Go heap in use after a collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// addrBook maps every participant to its base URL.
func (r *liveRun) addrBook() map[string]string {
	out := map[string]string{"origin": r.lc.Cfg.OriginAddr}
	for n, a := range r.lc.Cfg.Addrs {
		out[n] = a
	}
	for n, a := range r.lc.Cfg.ShieldAddrs {
		out[n] = a
	}
	return out
}

// quotaFill is the largest resident/quota share of any tenant on any node.
func (r *liveRun) quotaFill(s snapshot) float64 {
	var fill float64
	for _, st := range s.nodes {
		for id, ts := range st.Tenants {
			q := r.lc.Cfg.Tenants[id].Bytes
			if f := ratio(float64(ts.ResidentBytes), float64(q)); f > fill {
				fill = f
			}
		}
	}
	return fill
}

// fillFrac is the mean share of each node's capacity in use (of the
// corpus when capacity is unlimited).
func (r *liveRun) fillFrac(s snapshot) float64 {
	capacity := r.capacity
	if capacity == 0 {
		capacity = corpusBytes(r.docs)
	}
	var sum float64
	for _, st := range s.nodes {
		sum += ratio(float64(st.UsedBytes), float64(capacity))
	}
	return sum / float64(len(s.nodes))
}

// spanMetrics derives the transport and node self-time metrics from the
// linked spans of the traced slices and returns a report line showing
// that self time and child-RPC time add up to the mean miss span.
func spanMetrics(v map[string]float64, t *Tree) string {
	var docs, pubs, misses, errs float64
	var selfSum, coveredSum float64
	perRoot := make(map[string]float64) // "<root op>/<op>" → count
	durs := make(map[string][]int64)
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.Caller == "client" {
			switch s.Op {
			case "doc":
				docs++
				if !s.Err && s.Source != "local" {
					misses++
					selfSum += float64(t.Self[i])
					coveredSum += float64(t.Covered[i])
				}
			case "publish":
				pubs++
			}
			continue
		}
		durs[s.Op] = append(durs[s.Op], s.dur())
		if s.Err {
			errs++
		}
		if root := t.Root[i]; root >= 0 {
			perRoot[t.Spans[root].Op+"/"+s.Op]++
		}
	}
	for _, op := range rpcDocOps {
		v["rpc."+op+".per_doc"] = ratio(perRoot["doc/"+op], docs)
		v["rpc."+op+".p50_us"] = us(quantile(sortedCopy(durs[op]), 0.5))
	}
	for _, op := range rpcPublishOps {
		v["rpc."+op+".per_publish"] = ratio(perRoot["publish/"+op], pubs)
		v["rpc."+op+".p50_us"] = us(quantile(sortedCopy(durs[op]), 0.5))
	}
	v["node.doc_self_us"] = ratio(selfSum, misses) / 1e3
	v["rpc.critical_us_per_miss"] = ratio(coveredSum, misses) / 1e3
	v["rpc.errors_per_kreq"] = 1000 * ratio(errs, docs)
	v["tracing.ambiguous_links"] = float64(t.Ambiguous)
	v["tracing.unlinked_rpcs"] = float64(t.Unlinked)
	return fmt.Sprintf("# traced miss /doc spans: %.0f, mean %.1f us = self %.1f us + child RPCs %.1f us",
		misses, ratio(selfSum+coveredSum, misses)/1e3, v["node.doc_self_us"], v["rpc.critical_us_per_miss"])
}

// liveKeyStream is the start of the measured op stream as the layers see
// it: tenant-folded keys of the /doc ops.
func liveKeyStream(spec liveSpec, ops []op, docs []document.Document, capacity int64) keyStream {
	ks := keyStream{docs: docs, capacity: capacity}
	if len(spec.tenants) > 0 {
		ks.quotas = make(map[string]int, len(spec.tenants))
		for i, id := range spec.tenants {
			ks.quotas[id] = spec.weights[i]
		}
	}
	for _, o := range ops {
		if o.publish {
			continue
		}
		tid := ""
		if len(spec.tenants) > 0 {
			tid = spec.tenants[o.tenant]
		}
		ks.keys = append(ks.keys, document.TenantKey(tid, docs[o.doc].URL))
		ks.tenants = append(ks.tenants, tid)
		ks.idx = append(ks.idx, o.doc)
		if len(ks.keys) == probeStream {
			break
		}
	}
	return ks
}

// layerValues stores the standalone probe timings.
func layerValues(v map[string]float64, p layerProbes) {
	v["document.hash_url_ns"] = p.hashURL
	v["document.tenant_key_ns"] = p.tenantKey
	v["cache.get_ns"] = p.cacheGet
	v["cache.put_ns"] = p.cachePut
	v["admit.gate_acquire_ns"] = p.gate
	v["admit.limiter_acquire_ns"] = p.limiter
	v["tenant.fairshare_acquire_ns"] = p.fair
	v["ladder.json_encode_ns"] = p.jsonEncode
	v["placement.should_store_ns"] = p.shouldStore
}

// ladder computes the hit-path ladder: the in-process steps a local hit
// runs, the handler's remainder beyond them, and the loopback residue
// beyond the handler, so the steps sum to node.local_p50_us. The
// fair-share step is on the hit path only when tenancy is on.
func ladder(v map[string]float64, p layerProbes, tenancy bool) []string {
	type step struct {
		name string
		ns   float64
	}
	steps := []step{{"document.TenantKey", p.tenantKey}, {"cache.Get", p.cacheGet}, {"admit gate acquire", p.gate}}
	if tenancy {
		steps = append(steps, step{"tenant fair-share acquire", p.fair})
	}
	steps = append(steps, step{"DocResponse JSON encode", p.jsonEncode})
	var inSteps float64
	for _, s := range steps {
		inSteps += s.ns
	}
	v["ladder.handler_other_ns"] = p.handler - inSteps
	v["ladder.hit_residue_us"] = v["node.local_p50_us"] - p.handler/1e3
	out := []string{"# hit-path ladder (ns; the rows sum to node.local_p50_us):"}
	for _, s := range steps {
		out = append(out, fmt.Sprintf("  %-38s %14.1f ns", s.name, s.ns))
	}
	out = append(out,
		fmt.Sprintf("  %-38s %14.1f ns", "handler remainder (mux, query, writer)", v["ladder.handler_other_ns"]),
		fmt.Sprintf("  %-38s %14.1f ns  (%.1f allocs)", "= in-process hit handler", p.handler, p.handlerAllocs),
		fmt.Sprintf("  %-38s %14.1f ns", "loopback residue (client, HTTP, socket)", 1e3*v["ladder.hit_residue_us"]),
		fmt.Sprintf("  %-38s %14.1f ns", "= loopback local hit p50", 1e3*v["node.local_p50_us"]),
		fmt.Sprintf("  %-38s %14.1f ns", "document.HashURL (miss path only)", p.hashURL),
	)
	return out
}

// zeroSimOnly sets the metrics only sim-replay measures to 0.
func zeroSimOnly(v map[string]float64) {
	for _, k := range []string{"core.lookup_hash_ns", "ring.rebalance_us", "sim.allocs_per_event", "trace.gen_s"} {
		v[k] = 0
	}
}

// simWorkload runs sim-replay.
func simWorkload(s simSpec, seed int64, seconds float64, traced bool) (*result, error) {
	sr, err := runSim(s, seed, seconds)
	if err != nil {
		return nil, err
	}
	res := &result{faults: sr.faults, attempted: sr.events, values: make(map[string]float64)}
	// Medians over replays: the events per second of the median replay.
	replayUs := medianF(sr.replayUs)
	evPerS := float64(len(sr.tr.Events)) / (replayUs / 1e6)
	res.report = append(res.report,
		"# end-to-end figures:",
		line("sim_events_per_s", evPerS, "ev/s"),
		line("replay_p50_us", replayUs, "us"),
		fmt.Sprintf("# %d replays, wall us %.0f", len(sr.replayUs), sr.replayUs),
		fmt.Sprintf("  replays %d of %d events; requests %d = local %d + cloud %d + misses %d",
			sr.replays, len(sr.tr.Events), sr.res.Requests, sr.res.LocalHits, sr.res.CloudHits, sr.res.GroupMisses),
		line("cloud_hit_ratio", sr.res.CloudHitRate(), "ratio"),
		line("setup_s", sr.setupS, "s"),
	)
	if !traced {
		heap := heapMiB()
		runtime.KeepAlive(sr.tr)
		res.report = append(res.report, line("heap_mb", heap, "MiB"))
		res.values["ops_per_s"] = evPerS
		res.values["op_p50_us"] = replayUs
		res.values["cloud_hit_ratio"] = sr.res.CloudHitRate()
		res.values["setup_s"] = sr.setupS
		res.values["heap_mb"] = heap
		return res, nil
	}
	v := res.values
	for _, d := range perLayer {
		v[d.name] = 0
	}
	var corpus int64
	for _, d := range sr.tr.Docs {
		corpus += d.Size
	}
	layerValues(v, probeLayers(simKeyStream(sr.tr, int64(s.capFrac*float64(corpus)), probeStream)))
	if v["core.lookup_hash_ns"], err = probeCore(s, sr.tr, probeStream); err != nil {
		return nil, err
	}
	if v["ring.rebalance_us"], err = probeRing(s, sr.tr); err != nil {
		return nil, err
	}
	v["sim.allocs_per_event"] = sr.allocsEvt
	v["trace.gen_s"] = sr.setupS
	v["node.local_frac"] = sr.res.LocalHitRate()
	v["node.peer_frac"] = ratio(float64(sr.res.CloudHits), float64(sr.res.Requests))
	v["node.origin_frac"] = ratio(float64(sr.res.GroupMisses), float64(sr.res.Requests))
	v["origin.fetches_per_kreq"] = 1000 * v["node.origin_frac"]
	return res, nil
}
