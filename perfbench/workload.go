package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"typhoon/internal/core"
	"typhoon/internal/topology"
)

// workload is one cluster shape and topology the benchmark drives.
type workload struct {
	name  string
	hosts int
	sinks int
	keyed bool
	// rateName is the paper-figure name the report gives tuples_per_s on
	// this workload.
	rateName string
}

// workloads are the benchmark's three workloads; BENCHMARK.json records why
// each was chosen.
var workloads = []workload{
	// Fig 8(a) remote: every tuple crosses transport, packetizer, ring,
	// switch, TCP tunnel, remote switch and transport, in full batches.
	{name: "fwd-remote", hosts: 2, sinks: 1, rateName: "fwd_tuples_per_s"},
	// Fig 9: one frame replicated by the switch's group table to 4 local
	// sinks; no tunnel on the path.
	{name: "fanout-local", hosts: 1, sinks: 4, rateName: "fanout_tuples_per_s"},
	// Guaranteed processing with fields routing, partition skew, per-key
	// state and multi-hop tunnels.
	{name: "keyed-openloop", hosts: 3, sinks: 1, keyed: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const topoName = "bench"

func (w workload) topology() (*topology.Logical, error) {
	b := topology.NewBuilder(topoName, 1)
	b.Source("src", logicSrc, 1)
	switch {
	case w.keyed:
		b.Ackers(1)
		b.Node("count", logicCount, 2).FieldsFrom("src", 0).Stateful()
		b.Node("sink", logicSink, 1).GlobalFrom("count")
	case w.sinks > 1:
		b.Node("sink", logicSink, w.sinks).AllFrom("src")
	default:
		b.Node("sink", logicSink, 1).ShuffleFrom("src")
	}
	return b.Build()
}

// Open-loop stage rates (records per second) and the closed-loop warm-up
// round whose first delivery ends set-up.
const (
	lowRate  = 5000
	highRate = 40000
	warmN    = 1000
	// zipfS is the key-popularity skew of the keyed workload.
	zipfS = 1.2
)

// Bounds on how long the benchmark waits for the cluster. A round or stage
// that misses them leaves its undelivered records counted as lost.
const (
	submitTimeout = 60 * time.Second
	burstTimeout  = 20 * time.Second
	drainTimeout  = 5 * time.Second
)

// plan is how one rep spends its measured time.
type plan struct {
	// bursts is how long closed-loop rounds of burstN records repeat.
	bursts time.Duration
	burstN int
	// low and high are the open-loop stage lengths; zero skips a stage.
	low, high time.Duration
}

// repOpts selects the data plane and tracing of one rep.
type repOpts struct {
	mode   core.Mode
	traced bool
}

// stageResult is one open-loop stage.
type stageResult struct {
	// lat is each record's latency in ms from its intended send time to
	// its arrival at the last sink; +Inf when undelivered.
	lat []float64
	// lateP99Us is the p99 of how late the generator handed records over.
	lateP99Us float64
	// lagP99 is the p99 of the records queued between generator and spout,
	// sampled at each generator wake-up.
	lagP99 float64
	// p50 and p99 are the latency percentiles of each latWindow of the
	// schedule; stolen is the share of the CPU the guest wanted during each
	// window that the hypervisor gave to other guests.
	p50, p99, stolen []float64
}

// latWindow splits an open-loop stage for its per-window percentiles. The
// run reports the median window, so a transient stall of the host counts
// once instead of setting the whole run's p99; 500 ms holds 2500 records
// at the low rate, leaving 25 beyond the p99.
const latWindow = 500 * time.Millisecond

// latStore holds every open-loop latency of a run in one buffer allocated
// before the first cluster starts. The benchmark's own retained memory is
// then the same for every cluster, instead of growing with each one and
// pacing later clusters' collections, and so their heap peaks, differently.
type latStore struct{ buf []float64 }

func newLatStore(reps int, p plan) *latStore {
	n := reps * int(lowRate*p.low.Seconds()+highRate*p.high.Seconds())
	return &latStore{buf: make([]float64, 0, n)}
}

// take returns the next n slots.
func (s *latStore) take(n int) []float64 {
	if len(s.buf)+n > cap(s.buf) {
		return make([]float64, n)
	}
	s.buf = s.buf[:len(s.buf)+n]
	return s.buf[len(s.buf)-n:]
}

// repResult is one cluster's set-up and measurements.
type repResult struct {
	newCluster, submit, setup float64 // seconds
	// rates are the closed-loop rounds' rates per second of CPU the
	// hypervisor left the guest: rawRates / (1 - stolen), with stolen
	// capped at maxStolenShare.
	rates, rawRates []float64
	// stolen is the share of the CPU the guest wanted during the rounds
	// that the hypervisor gave to other guests.
	stolen      float64
	low, high   stageResult
	heapPeaksMB []float64 // per closed-loop round
	attempted   int64
	viol        violations
	layer       *layerData
}

var errBurstTimeout = errors.New("closed-loop round did not complete")

// gen generates the rep's records: a single seq counter across all phases
// and, for the keyed workload, Zipf keys with per-key positions.
type gen struct {
	st      *runState
	zipf    *rand.Zipf
	keySeqs []int64
	nextSeq int64
}

func newGen(st *runState, rng *rand.Rand) *gen {
	g := &gen{st: st}
	if st.keyed {
		g.zipf = rand.NewZipf(rng, zipfS, 1, numStrings-1)
		g.keySeqs = make([]int64, numStrings)
	}
	return g
}

func (g *gen) records(n int) []rec {
	recs := make([]rec, n)
	for i := range recs {
		r := rec{seq: g.nextSeq}
		g.nextSeq++
		if g.zipf != nil {
			k := int32(g.zipf.Uint64())
			g.keySeqs[k]++
			r.key, r.keySeq = k, g.keySeqs[k]
		}
		recs[i] = r
	}
	return recs
}

// burst runs one closed-loop round of n records and returns its rate: n
// divided by the time from the first emit to the last delivery at the
// slowest sink.
func (g *gen) burst(n int) (float64, error) {
	recs := g.records(n)
	for _, s := range g.st.sinks {
		s.startBurst(recs[0].seq, int64(n))
	}
	b := &burst{recs: recs}
	g.st.burst.Store(b)
	defer g.st.burst.Store(nil)
	deadline := time.Now().Add(burstTimeout)
	for {
		done := true
		for _, s := range g.st.sinks {
			done = done && s.burstDone.Load()
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return 0, errBurstTimeout
		}
		time.Sleep(200 * time.Microsecond)
	}
	var last int64
	for _, s := range g.st.sinks {
		s.mu.Lock()
		if s.burstDoneAt > last {
			last = s.burstDoneAt
		}
		s.mu.Unlock()
	}
	span := time.Duration(last - b.firstEmit.Load())
	if span <= 0 {
		return 0, fmt.Errorf("closed-loop round ended before it started")
	}
	return float64(n) / span.Seconds(), nil
}

// openStage plays rate records per second for dur on a fixed schedule that
// does not wait for the cluster, and measures each record's latency from
// its intended send time.
func (g *gen) openStage(rate float64, dur time.Duration, lat *latStore) stageResult {
	st := g.st
	n := int(rate * dur.Seconds())
	recs := g.records(n)
	for _, s := range st.sinks {
		s.startStage(recs[0].seq, n)
	}
	// Sized to the whole stage so the generator never blocks on a slow
	// spout: its lateness then measures only its own schedule, and a
	// backlog shows up as ingest lag and latency instead.
	feed := make(chan rec, n)
	st.feed.Store(&feed)
	defer st.feed.Store(nil)

	var res stageResult
	late := make([]float64, 0, n)
	var lag []float64
	period := 1e9 / rate
	start := st.now() + int64(time.Millisecond)
	due := func(i int) int64 { return start + int64(float64(i)*period) }
	per := min(int(rate*latWindow.Seconds()), n)
	// CPU ticks at each window's start, and at the stage's end.
	var marks []cpuTicks
	var marksOK []bool
	mark := func() {
		t, ok := readCPUTicks()
		marks, marksOK = append(marks, t), append(marksOK, ok)
	}
	for i := 0; i < n; {
		now := st.now()
		for ; i < n && due(i) <= now; i++ {
			if per > 0 && i%per == 0 {
				mark()
			}
			recs[i].intended = due(i)
			feed <- recs[i]
			late = append(late, float64(now-recs[i].intended)/1e3)
		}
		lag = append(lag, float64(len(feed)))
		if i < n {
			if d := due(i) - st.now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
	}
	mark()
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		done := true
		for _, s := range st.sinks {
			done = done && s.stageCount.Load() == int64(n)
		}
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	arrivals := make([][]int64, len(st.sinks))
	for j, s := range st.sinks {
		arrivals[j] = s.endStage()
	}
	res.lateP99Us, res.lagP99 = percentile(late, 0.99), percentile(lag, 0.99)
	res.lat = lat.take(n)
	for i := range recs {
		var last int64
		for _, a := range arrivals {
			if a[i] == 0 {
				last = -1
				break
			}
			if a[i] > last {
				last = a[i]
			}
		}
		if last < 0 {
			res.lat[i] = math.Inf(1)
		} else {
			res.lat[i] = float64(last-recs[i].intended) / 1e6
		}
	}
	for lo := 0; per > 0 && lo+per <= n; lo += per {
		w := append([]float64(nil), res.lat[lo:lo+per]...)
		sort.Float64s(w)
		k := lo / per
		res.p50 = append(res.p50, sortedPercentile(w, 0.5))
		res.p99 = append(res.p99, sortedPercentile(w, 0.99))
		res.stolen = append(res.stolen, stolenShare(marks[k], marks[k+1], marksOK[k], marksOK[k+1]))
	}
	return res
}

func hostNames(n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d", i+1)
	}
	return hosts
}

// runRep builds one cluster, submits the workload's topology, runs the
// plan, checks every sink's stream and tears the cluster down.
func runRep(w workload, in *inputs, p plan, o repOpts, rng *rand.Rand, spans *spanLog, lat *latStore) (*repResult, error) {
	// Start every cluster from a collected heap, so one rep's garbage does
	// not pace the next one's collections.
	runtime.GC()
	base := time.Now()
	st := newRunState(in, w.keyed, w.sinks, base, o.traced)
	traceEvery := -1
	if o.traced {
		traceEvery = traceSampleEvery
	}
	l, err := w.topology()
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	res := &repResult{}
	t0 := time.Now()
	c, err := core.NewCluster(core.WithMode(o.mode), core.WithHosts(hostNames(w.hosts)...),
		core.WithTraceEvery(traceEvery))
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("new cluster: %w", err)
	}
	defer c.Stop()
	c.Env.Set(envKey, st)
	if err := c.Submit(l, submitTimeout); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	t2 := time.Now()
	spans.add("core.NewCluster", "core", t0, t1)
	spans.add("Cluster.Submit", "core", t1, t2)

	g := newGen(st, rng)
	if _, err := g.burst(warmN); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	first := int64(math.MaxInt64)
	for _, s := range st.sinks {
		s.mu.Lock()
		if s.firstAt > 0 && s.firstAt < first {
			first = s.firstAt
		}
		s.mu.Unlock()
	}
	res.newCluster = t1.Sub(t0).Seconds()
	res.submit = t2.Sub(t1).Seconds()
	res.setup = (time.Duration(first) - t0.Sub(base)).Seconds()

	var probe *layerProbe
	if o.traced {
		probe = startLayerProbe(c, w)
	}
	var runErr error
	cpu0, ok0 := readCPUTicks()
	for end := time.Now().Add(p.bursts); len(res.rawRates) == 0 || time.Now().Before(end); {
		// The heap peak is taken per round: rounds are identical units of
		// work, while a run-wide maximum hangs on where one GC cycle falls.
		heap := startHeapSampler()
		r, err := g.burst(p.burstN)
		res.heapPeaksMB = append(res.heapPeaksMB, heap.stop())
		if err != nil {
			runErr = err
			break
		}
		res.rawRates = append(res.rawRates, r)
	}
	// A closed-loop round keeps both vCPUs busy, so its rate scales with the
	// CPU time the hypervisor grants; scaling by the stolen share keeps
	// another guest's load on the host out of the program's figure.
	cpu1, ok1 := readCPUTicks()
	res.stolen = stolenShare(cpu0, cpu1, ok0, ok1)
	for _, r := range res.rawRates {
		res.rates = append(res.rates, r/(1-min(res.stolen, maxStolenShare)))
	}
	if runErr == nil && p.low > 0 {
		res.low = g.openStage(lowRate, p.low, lat)
	}
	if runErr == nil && p.high > 0 {
		res.high = g.openStage(highRate, p.high, lat)
	}
	if probe != nil {
		res.layer = probe.stop(g.nextSeq-warmN, g.nextSeq)
	}
	res.attempted = g.nextSeq
	for _, s := range st.sinks {
		s.mu.Lock()
		res.viol.add(s.chk.verdict(res.attempted))
		s.mu.Unlock()
	}
	if res.layer != nil {
		st.emitMu.Lock()
		res.layer.emitNs = floats(st.emitNs)
		spans.addAll(st.emitSpan)
		st.emitMu.Unlock()
		spans.addTraces(res.layer.traces)
	}
	if runErr != nil && res.viol.total() == 0 {
		return nil, runErr
	}
	return res, nil
}

func floats(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}
