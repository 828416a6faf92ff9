package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run (--trace 0), reported on
// every workload. On the live workloads an op is a client /doc request;
// on sim-replay it is a trace event (throughput) or a whole replay
// (latency).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"cloud_hit_ratio", "ratio"},
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
}

// rpcDocOps and rpcPublishOps are the inter-node RPCs a /doc and a
// /publish cause.
var (
	rpcDocOps     = []string{"lookup", "peer_fetch", "origin_fetch", "sfetch", "register", "deregister"}
	rpcPublishOps = []string{"supdate", "update", "apply"}
)

// perLayer are the metrics of a traced run (--trace 1). A metric of a
// layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"node.hit_handler_ns", "ns"},
		{"node.hit_handler_allocs", "count"},
		{"node.local_p50_us", "us"},
		{"node.peer_p50_us", "us"},
		{"node.origin_p50_us", "us"},
		{"node.local_frac", "ratio"},
		{"node.peer_frac", "ratio"},
		{"node.origin_frac", "ratio"},
		{"node.doc_self_us", "us"},
	}
	for _, op := range rpcDocOps {
		defs = append(defs, metricDef{"rpc." + op + ".per_doc", "count"}, metricDef{"rpc." + op + ".p50_us", "us"})
	}
	for _, op := range rpcPublishOps {
		defs = append(defs, metricDef{"rpc." + op + ".per_publish", "count"}, metricDef{"rpc." + op + ".p50_us", "us"})
	}
	return append(defs,
		metricDef{"rpc.critical_us_per_miss", "us"},
		metricDef{"rpc.errors_per_kreq", "count"},
		metricDef{"admit.gate_acquire_ns", "ns"},
		metricDef{"admit.limiter_acquire_ns", "ns"},
		metricDef{"admit.coalesced_per_kmiss", "count"},
		metricDef{"admit.shed_per_kreq", "count"},
		metricDef{"admit.gate_queued", "count"},
		metricDef{"tenant.fairshare_acquire_ns", "ns"},
		metricDef{"tenant.shed_per_kreq", "count"},
		metricDef{"tenant.quota_fill", "ratio"},
		metricDef{"document.tenant_key_ns", "ns"},
		metricDef{"document.hash_url_ns", "ns"},
		metricDef{"cache.get_ns", "ns"},
		metricDef{"cache.put_ns", "ns"},
		metricDef{"cache.fill_frac", "ratio"},
		metricDef{"placement.should_store_ns", "ns"},
		metricDef{"placement.store_frac", "ratio"},
		metricDef{"shield.hit_ratio", "ratio"},
		metricDef{"shield.clouds_notified_per_publish", "count"},
		metricDef{"shield.updates_in_per_publish", "count"},
		metricDef{"origin.publish_server_p50_us", "us"},
		metricDef{"origin.bytes_out_per_req", "B"},
		metricDef{"origin.fetches_per_kreq", "count"},
		metricDef{"durable.bytes_per_publish", "B"},
		metricDef{"durable.compactions", "count"},
		metricDef{"consistency.stale_serves", "count"},
		metricDef{"core.lookup_hash_ns", "ns"},
		metricDef{"ring.rebalance_us", "us"},
		metricDef{"sim.allocs_per_event", "count"},
		metricDef{"trace.gen_s", "s"},
		metricDef{"runtime.allocs_per_req", "count"},
		metricDef{"runtime.gc_per_kreq", "count"},
		metricDef{"tracing.overhead_frac", "ratio"},
		metricDef{"tracing.ambiguous_links", "count"},
		metricDef{"tracing.unlinked_rpcs", "count"},
		metricDef{"ladder.json_encode_ns", "ns"},
		metricDef{"ladder.handler_other_ns", "ns"},
		metricDef{"ladder.hit_residue_us", "us"},
		metricDef{"client.doc_rps", "1/s"},
		metricDef{"client.doc_p99_us", "us"},
		metricDef{"client.doc_samples", "count"},
		metricDef{"client.publish_p50_us", "us"},
		metricDef{"client.publish_p99_us", "us"},
		metricDef{"client.publish_samples", "count"},
		metricDef{"client.failed_frac", "ratio"},
	)
}()
