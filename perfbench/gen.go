package main

import (
	"math/rand"
	"net/url"

	"cachecloud/internal/document"
	"cachecloud/internal/trace"
)

// op is one generated client operation.
type op struct {
	node    uint8 // index into the cluster's node names
	tenant  uint8 // index into the workload's request tenants
	publish bool  // POST /publish of the document instead of GET /doc
	doc     int32 // catalog index
}

// streamLen is the length of a generated op stream; a closed loop that
// runs past the end wraps around, so a seed always yields the same ops.
const streamLen = 1 << 18

// catalog returns the workload's document catalog: the trace package's
// seeded log-normal sizes (median about 8 KiB) under synthetic URLs.
func catalog(seed int64, docs int) []document.Document {
	tr := trace.GenerateZipf(trace.ZipfConfig{
		Seed: seed, NumDocs: docs, Alpha: 0.5, Caches: 1,
		Duration: 1, ReqPerCache: 1, UpdatesPerUnit: 1,
	})
	return tr.Docs
}

// genOps draws n operations: Zipf(alpha) documents at uniformly chosen
// nodes, tenants drawn uniformly from the request tenants, and every
// publishEvery-th operation a publish (0 = never).
func genOps(seed int64, n, docs, nodes, tenants int, alpha float64, publishEvery int) []op {
	rng := rand.New(rand.NewSource(seed))
	z := trace.NewZipf(rng, docs, alpha)
	ops := make([]op, n)
	for i := range ops {
		o := op{node: uint8(rng.Intn(nodes)), doc: int32(z.Sample())}
		if tenants > 1 {
			o.tenant = uint8(rng.Intn(tenants))
		}
		o.publish = publishEvery > 0 && i%publishEvery == publishEvery-1
		ops[i] = o
	}
	return ops
}

// escapedURLs returns each catalog URL escaped for a query parameter.
func escapedURLs(docs []document.Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = url.QueryEscape(d.URL)
	}
	return out
}

// corpusBytes sums the catalog's document sizes.
func corpusBytes(docs []document.Document) int64 {
	var total int64
	for _, d := range docs {
		total += d.Size
	}
	return total
}
