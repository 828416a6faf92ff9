// Command cachenode runs one live edge-cache node of a cache cloud. Every
// node of the cluster shares a JSON cluster configuration file describing
// the rings, the node addresses and the origin address:
//
//	{
//	  "intraGen": 1000,
//	  "rings": [["n0","n1"],["n2","n3"]],
//	  "addrs": {"n0":"http://127.0.0.1:8100", "n1":"http://127.0.0.1:8101",
//	            "n2":"http://127.0.0.1:8102", "n3":"http://127.0.0.1:8103"},
//	  "originAddr": "http://127.0.0.1:8000",
//	  "capacityBytes": 0,
//	  "utilityPlacement": true
//	}
//
// Usage:
//
//	cachenode -name n0 -listen 127.0.0.1:8100 -config cluster.json
//
// The node heartbeats its liveness to the origin every -heartbeat (0
// disables); outbound calls get per-request deadlines (-timeout) with
// -retries bounded retries and per-peer circuit breaking.
//
// Overload resilience is tuned with -max-inflight (admission gate
// capacity), -miss-queue (bounded miss-class queue) and -limit-mode
// (adaptive origin-fetch limiter: aimd, gradient or fixed); each
// overrides the matching cluster-config field when set.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"cachecloud/internal/node"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cachenode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cachenode", flag.ContinueOnError)
	var (
		name      = fs.String("name", "", "this node's name (must appear in the cluster config)")
		listen    = fs.String("listen", "", "listen address, e.g. 127.0.0.1:8100")
		cfgPath   = fs.String("config", "cluster.json", "cluster configuration file")
		snap      = fs.String("snapshot", "", "snapshot file: loaded at start, written on POST /snapshot/save")
		heartbeat = fs.Duration("heartbeat", 2*time.Second, "heartbeat period to the origin (0 disables)")
		reconcile = fs.Duration("reconcile", 30*time.Second, "anti-entropy reconcile period; also bounds how long a beacon lists an evicted copy (0 disables)")
		timeout   = fs.Duration("timeout", 5*time.Second, "per-request deadline for outbound calls")
		retries   = fs.Int("retries", 2, "outbound retries after a failed attempt (-1 disables)")
		pprofOn   = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		maxInfl   = fs.Int("max-inflight", 0, "admission gate capacity in weight units (0 = config value or 64)")
		missQueue = fs.Int("miss-queue", 0, "bounded queue for miss-class admissions (0 = config value or 32)")
		limitMode = fs.String("limit-mode", "", "origin-fetch limiter: aimd, gradient or fixed (default config value or aimd)")
		storeDir  = fs.String("store-dir", "", "durable cache tier directory root (empty = memory-only; overrides config)")
		fsyncPol  = fs.String("fsync", "", "durable store fsync policy: rotate, always or never (default config value or rotate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *listen == "" {
		return fmt.Errorf("both -name and -listen are required")
	}
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		return err
	}
	// Overload knobs: flags override the shared cluster config so a single
	// node can be retuned without editing the file every node reads.
	if *maxInfl > 0 {
		cfg.MaxInflight = *maxInfl
	}
	if *missQueue > 0 {
		cfg.MissQueue = *missQueue
	}
	if *limitMode != "" {
		cfg.LimitMode = *limitMode
	}
	if *storeDir != "" {
		cfg.StoreDir = *storeDir
	}
	if *fsyncPol != "" {
		cfg.Fsync = *fsyncPol
	}
	tp := node.NewHTTPTransport(node.TransportOptions{
		RequestTimeout: *timeout,
		MaxRetries:     *retries,
		NoRetries:      *retries < 0,
	})
	n, err := node.NewCacheNodeWithTransport(*name, cfg, tp)
	if err != nil {
		return err
	}
	if *snap != "" {
		n.SetSnapshotPath(*snap)
		if err := n.LoadSnapshotFile(*snap); err != nil {
			return fmt.Errorf("load snapshot: %w", err)
		}
	}
	if *heartbeat > 0 {
		stop := n.StartHeartbeat(*heartbeat)
		defer stop()
	}
	if *reconcile > 0 {
		stop := n.StartReconcile(*reconcile)
		defer stop()
	}
	if warm, recovered := n.WarmBootInfo(); warm {
		fmt.Fprintf(os.Stderr, "cachenode %s warm boot: %d entries recovered, revalidating\n", *name, recovered)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			kept, dropped := n.WarmRevalidate(ctx)
			fmt.Fprintf(os.Stderr, "cachenode %s warm revalidation: %d fresh, %d stale dropped\n", *name, kept, dropped)
		}()
	}
	h := n.Handler()
	if *pprofOn {
		h = withPprof(h)
	}
	fmt.Fprintf(os.Stderr, "cachenode %s listening on %s\n", *name, *listen)
	return http.ListenAndServe(*listen, h)
}

// withPprof mounts the net/http/pprof handlers under /debug/pprof/ in
// front of the node's own routes. Gated behind -pprof: the profiling
// endpoints should not be exposed by default.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

func loadConfig(path string) (node.ClusterConfig, error) {
	var cfg node.ClusterConfig
	raw, err := os.ReadFile(path)
	if err != nil {
		return cfg, fmt.Errorf("read cluster config: %w", err)
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return cfg, fmt.Errorf("parse cluster config: %w", err)
	}
	return cfg, nil
}
