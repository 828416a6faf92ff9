package main

import (
	"fmt"
	"runtime"
	"time"

	"cachecloud/internal/core"
	"cachecloud/internal/document"
	"cachecloud/internal/loadstats"
	"cachecloud/internal/placement"
	"cachecloud/internal/ring"
	"cachecloud/internal/sim"
	"cachecloud/internal/trace"
)

// simSpec is the sim-replay workload: the paper's Figure 9 setup on a
// SydneyLike trace.
type simSpec struct {
	caches   int
	rings    int
	units    int64
	updates  int
	capFrac  float64
	intraGen int
	// expected are the hit counts the replay must reproduce on
	// recorded seeds: seed → {local hits, cloud hits}.
	expected map[int64][2]int64
}

var simReplaySpec = simSpec{
	caches: 10, rings: 5, units: 480, updates: 195, capFrac: 0.30, intraGen: 1000,
	expected: map[int64][2]int64{
		defaultSeed: {64069, 133280},
		heldOutSeed: {64401, 132949},
	},
}

func (s simSpec) trace(seed int64) *trace.Trace {
	return trace.GenerateSydney(trace.SydneyConfig{
		Seed: seed, NumDocs: 51634, Caches: s.caches, Duration: s.units,
		PeakReqPerCache: 80, UpdatesPerUnit: s.updates,
	})
}

func (s simSpec) config(seed int64) (sim.Config, error) {
	util, err := placement.NewUtility(placement.EqualOn(true, true, true, true), 0.5)
	if err != nil {
		return sim.Config{}, err
	}
	cycle := s.units / 4
	if cycle > 60 {
		cycle = 60
	}
	return sim.Config{
		Arch: sim.DynamicHashing, NumRings: s.rings, IntraGen: s.intraGen, CycleLength: cycle,
		Policy: util, CapacityFraction: s.capFrac, Seed: seed,
	}, nil
}

// simRun is the outcome of the replays of one run.
type simRun struct {
	setupS    float64
	tr        *trace.Trace
	res       *sim.Result
	replays   int
	events    int64
	replayUs  []float64
	faults    []string
	allocsEvt float64
}

// simSetups is how many times sim-replay generates its trace; the
// generation is short, so more repetitions keep its median steady.
const simSetups = 9

// runSim generates the trace simSetups times (set-up) and replays it
// until `seconds` have passed, checking every replay's counters.
func runSim(s simSpec, seed int64, seconds float64) (*simRun, error) {
	out := &simRun{}
	var times []float64
	for i := 0; i < simSetups; i++ {
		out.tr = nil
		runtime.GC()
		t0 := time.Now()
		out.tr = s.trace(seed)
		times = append(times, time.Since(t0).Seconds())
	}
	out.setupS = medianF(times)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for out.replays == 0 || time.Now().Before(deadline) {
		cfg, err := s.config(seed)
		if err != nil {
			return nil, err
		}
		// Collect the previous replay's garbage first, so every replay
		// starts from the same heap and does the same work.
		runtime.GC()
		var m0, m1 runtime.MemStats
		if out.replays == 0 {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		res, err := sim.Run(cfg, out.tr)
		el := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("sim replay: %w", err)
		}
		if out.replays == 0 {
			runtime.ReadMemStats(&m1)
			out.allocsEvt = float64(m1.Mallocs-m0.Mallocs) / float64(len(out.tr.Events))
			out.res = res
			out.faults = s.check(seed, res)
		} else if res.LocalHits != out.res.LocalHits || res.CloudHits != out.res.CloudHits || res.GroupMisses != out.res.GroupMisses {
			out.faults = append(out.faults, fmt.Sprintf("replay %d diverged: hits %d/%d/%d, first replay %d/%d/%d",
				out.replays, res.LocalHits, res.CloudHits, res.GroupMisses, out.res.LocalHits, out.res.CloudHits, out.res.GroupMisses))
		}
		out.replays++
		out.events += int64(len(out.tr.Events))
		out.replayUs = append(out.replayUs, float64(el.Nanoseconds())/1e3)
	}
	return out, nil
}

// check checks request conservation and, on a seed with recorded
// counts, the hit counts themselves.
func (s simSpec) check(seed int64, res *sim.Result) []string {
	var out []string
	if res.Requests != res.LocalHits+res.CloudHits+res.GroupMisses {
		out = append(out, fmt.Sprintf("requests %d != local %d + cloud %d + misses %d",
			res.Requests, res.LocalHits, res.CloudHits, res.GroupMisses))
	}
	if want, ok := s.expected[seed]; ok && (res.LocalHits != want[0] || res.CloudHits != want[1]) {
		out = append(out, fmt.Sprintf("seed %d: local/cloud hits %d/%d, recorded %d/%d",
			seed, res.LocalHits, res.CloudHits, want[0], want[1]))
	}
	return out
}

// simKeyStream is the trace's request stream for the layer probes.
func simKeyStream(tr *trace.Trace, capacity int64, n int) keyStream {
	index := make(map[string]int32, len(tr.Docs))
	for i, d := range tr.Docs {
		index[d.URL] = int32(i)
	}
	ks := keyStream{docs: tr.Docs, capacity: capacity}
	for _, ev := range tr.Events {
		if ev.Kind != trace.Request {
			continue
		}
		ks.keys = append(ks.keys, ev.URL)
		ks.tenants = append(ks.tenants, "")
		ks.idx = append(ks.idx, index[ev.URL])
		if len(ks.keys) == n {
			break
		}
	}
	return ks
}

// probeCore times Cloud.LookupHash over the trace's requests, with the
// first requests' caches registered as holders.
func probeCore(s simSpec, tr *trace.Trace, n int) (float64, error) {
	cloud, err := core.New(core.Config{NumRings: s.rings, IntraGen: s.intraGen, FineGrained: true}, trace.CacheNames(s.caches), nil)
	if err != nil {
		return 0, err
	}
	var reqs []trace.Event
	for _, ev := range tr.Events {
		if ev.Kind == trace.Request {
			reqs = append(reqs, ev)
			if len(reqs) == n {
				break
			}
		}
	}
	for _, ev := range reqs[:len(reqs)/4] {
		if err := cloud.RegisterHolderHash(ev.URL, ev.Hash, ev.Cache); err != nil {
			return 0, err
		}
	}
	ns, _ := probe(len(reqs), func(i int) {
		ev := reqs[i]
		_, _ = cloud.LookupHash(ev.URL, ev.Hash, ev.Time)
	})
	return ns, nil
}

// probeRing times one sub-range determination pass per ring, after
// loading each ring with the trace's per-IrH lookup counts.
func probeRing(s simSpec, tr *trace.Trace) (float64, error) {
	var times []float64
	for rep := 0; rep < probeReps; rep++ {
		rings := make([]*ring.Ring, s.rings)
		for r := range rings {
			rg, err := ring.New(ring.Config{IntraGen: s.intraGen, FineGrained: true},
				[]ring.Member{{ID: fmt.Sprintf("r%d-a", r), Capability: 1}, {ID: fmt.Sprintf("r%d-b", r), Capability: 1}})
			if err != nil {
				return 0, err
			}
			rings[r] = rg
		}
		for _, ev := range tr.Events {
			h := ev.Hash
			if h == 0 {
				h = document.HashURL(ev.URL)
			}
			kind := loadstats.Lookup
			if ev.Kind == trace.Update {
				kind = loadstats.Update
			}
			if err := rings[h.RingIndex(s.rings)].Record(h.IrH(s.intraGen), kind, 1); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		for _, rg := range rings {
			rg.Rebalance()
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(rings)))
	}
	return medianF(times), nil
}
