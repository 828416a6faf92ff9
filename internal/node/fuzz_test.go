package node

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// fuzzTransport fails every outbound call, so fuzzed handlers exercise
// their error paths without touching the network.
type fuzzTransport struct{}

func (fuzzTransport) GetJSON(ctx context.Context, url string, out any) error {
	return errors.New("fuzz: no network")
}

func (fuzzTransport) PostJSON(ctx context.Context, url string, in, out any) error {
	return errors.New("fuzz: no network")
}

// fuzzEndpoints lists every wire-protocol route of both node kinds.
var fuzzEndpoints = []struct {
	method, path string
	origin       bool
}{
	{"GET", "/doc", false},
	{"GET", "/lookup", false},
	{"POST", "/register", false},
	{"GET", "/fetch", false},
	{"POST", "/update", false},
	{"POST", "/apply", false},
	{"POST", "/subranges", false},
	{"GET", "/subranges", false},
	{"POST", "/records/import", false},
	{"POST", "/records/replica", false},
	{"POST", "/replicate", false},
	{"POST", "/reconcile", false},
	{"POST", "/loads/collect", false},
	{"POST", "/membership", false},
	{"GET", "/stats", false},
	{"GET", "/metrics", false},
	{"GET", "/fetch", true},
	{"POST", "/publish", true},
	{"POST", "/rebalance", true},
	{"POST", "/replicate", true},
	{"POST", "/repair", true},
	{"POST", "/heartbeat", true},
	{"GET", "/stats", true},
	{"GET", "/metrics", true},
}

// FuzzProtocolDecode sends arbitrary bodies and query strings at every
// HTTP endpoint of a cache node and the origin. The handlers must reject
// garbage with an error status, never a panic — a panic here is a
// remotely-triggerable crash of a live node.
func FuzzProtocolDecode(f *testing.F) {
	f.Add(uint8(0), "url=http://live/doc/1", []byte(""))
	f.Add(uint8(2), "", []byte(`{"url":"http://live/doc/1","node":"n0"}`))
	f.Add(uint8(2), "", []byte(`{"url":"http://live/doc/1","node":"n1","gone":["http://live/doc/2","http://live/doc/3"]}`))
	f.Add(uint8(4), "", []byte(`{"doc":{"url":"http://live/doc/1","size":100,"version":2}}`))
	f.Add(uint8(6), "", []byte(`{"rings":[[{"node":"n0","lo":0,"hi":99}]]}`))
	f.Add(uint8(8), "", []byte(`{"records":[{"url":"u","holders":["n0"],"version":1}]}`))
	f.Add(uint8(12), "", []byte(`{"down":["n1"]}`))
	f.Add(uint8(16), "", []byte(`{"url":"http://live/doc/1"}`))
	f.Add(uint8(20), "", []byte(`{"node":"n1","seq":1,"recordsHeld":3}`))
	f.Add(uint8(6), "", []byte(`{"rings":[[]]}`))
	f.Add(uint8(4), "", []byte(`{"doc":`))
	f.Add(uint8(255), "%zz=&&;", []byte{0xff, 0x00, 0x7b})
	f.Fuzz(func(t *testing.T, endpoint uint8, query string, body []byte) {
		cfg := ClusterConfig{
			IntraGen: 100,
			Rings:    [][]string{{"n0", "n1"}},
			Addrs: map[string]string{
				"n0": "http://127.0.0.1:1", "n1": "http://127.0.0.1:2",
			},
			OriginAddr: "http://127.0.0.1:3",
		}
		cache, err := NewCacheNodeWithTransport("n0", cfg, fuzzTransport{})
		if err != nil {
			t.Fatal(err)
		}
		origin, err := NewOriginNodeWithTransport(cfg, testCatalog(3), fuzzTransport{})
		if err != nil {
			t.Fatal(err)
		}

		ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		handler := cache.Handler()
		if ep.origin {
			handler = origin.Handler()
		}
		req := &http.Request{
			Method:     ep.method,
			URL:        &url.URL{Path: ep.path, RawQuery: query},
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(bytes.NewReader(body)),
			Host:       "fuzz.local",
			RemoteAddr: "127.0.0.1:9",
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // must not panic
		if rec.Code == 0 {
			t.Fatalf("%s %s: no status written", ep.method, ep.path)
		}
	})
}
