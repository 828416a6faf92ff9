// Command perfbench is the repository's benchmark. It boots an in-process
// node.LocalCluster and drives it over loopback HTTP with a seeded
// closed-loop load (hot-read, cold-miss, publish-mix), or replays a
// SydneyLike trace through internal/sim (sim-replay), checks the
// outputs, and prints the metrics named in BENCHMARK.json.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cold-miss --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run and reports the per-layer metrics. The last line of standard
// output is one JSON object; the lines before it are a readable report.
// The exit code is 1 when an output check fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

const (
	// defaultSeed is the seed results are quoted on; heldOutSeed is the
	// second seed a claimed gain must also hold on.
	defaultSeed = 1
	heldOutSeed = 2
)

// workloads lists every workload in the order they are documented.
var workloads = []string{"hot-read", "cold-miss", "publish-mix", "sim-replay"}

// liveSpecs are the workloads driven over loopback HTTP.
var liveSpecs = map[string]liveSpec{
	"hot-read": {
		docs: 2000, alpha: 0.9, prime: true, warmupOps: 4000,
	},
	"cold-miss": {
		docs: 50000, alpha: 0.6, capacityFrac: 0.02, utility: true,
		tenants: []string{"gold", "free"}, weights: []int{3, 1}, warmupOps: 12000,
	},
	"publish-mix": {
		docs: 20000, alpha: 0.8, capacityFrac: 0.10, utility: true,
		shields: 2, durable: true, publishEvery: 10, warmupOps: 30000,
	},
}

// result is one run's outcome.
type result struct {
	faults    []string
	attempted int64
	failed    int64
	values    map[string]float64
	report    []string // per-workload figures and notes printed before the metrics
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", defaultSeed, "workload seed")
	seconds := fl.Float64("seconds", 10, "measured seconds per run")
	traced := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	scratch := fl.String("scratch", ".bench_build/tmp", "directory for durable stores (created, emptied after the run)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(dir) }()

	res, err := runWorkload(*workload, *seed, *seconds, *traced == 1, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	if err := writeResult(stdout, *workload, *seed, *traced, res, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(res.faults) > 0 {
		return 1
	}
	return 0
}

// runWorkload dispatches one run.
func runWorkload(name string, seed int64, seconds float64, traced bool, scratch string) (*result, error) {
	if name == "sim-replay" {
		return simWorkload(simReplaySpec, seed, seconds, traced)
	}
	spec, ok := liveSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
	}
	return liveWorkload(spec, seed, seconds, traced, scratch)
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the readable report and, last, the JSON result.
func writeResult(w io.Writer, workload string, seed int64, traced int, res *result, defs []metricDef) error {
	role := "seed"
	switch seed {
	case defaultSeed:
		role = "default seed"
	case heldOutSeed:
		role = "held-out seed"
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d (%s) trace=%d\n", workload, seed, role, traced)
	fmt.Fprintf(w, "# host: %s\n", hostFingerprint())
	for _, line := range res.report {
		fmt.Fprintln(w, line)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: len(res.faults) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricOut, len(defs))}
	fmt.Fprintf(w, "# metrics (%d):\n", len(defs))
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", d.name, v, d.unit)
	}
	if len(res.faults) == 0 {
		fmt.Fprintln(w, "# checks: ok")
	}
	for _, f := range res.faults {
		fmt.Fprintln(w, "# check FAILED:", f)
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// hostFingerprint names the CPU, its parallelism, the toolchain and the
// source tree the benchmark was built from.
func hostFingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceID())
}

// sourceID is the VCS revision the binary was built from, or, outside a
// git checkout, a hash of the Go sources and module files under the
// working directory.
func sourceID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
