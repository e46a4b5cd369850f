package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"typhoon/internal/core"
)

// refBurst is the round size of the Typhoon-vs-Storm reference. The
// baseline's receive inbox holds 8192 tuples and drops beyond that, so a
// round must fit in it to stay lossless; both sides use the same round.
const refBurst = 8000

// runTraced is the per-layer run: an untraced pass and a traced pass of the
// workload (their ratio is the tracing overhead), the per-layer ladder, and
// the paper's Fig 8(a) reference of fwd-remote on Typhoon against the
// Storm-style baseline.
func (r *runner) runTraced(outDir string) (result, bool, error) {
	budget := time.Duration(r.seconds) * time.Second
	share := budget / 4
	p := planFor(r.w, share)

	ureps, uviol, uatt, err := r.reps(1, repOpts{mode: core.ModeTyphoon}, p)
	if err != nil {
		return result{}, false, fmt.Errorf("untraced pass: %w", err)
	}
	r.spans = &spanLog{}
	treps, tviol, tatt, err := r.reps(1, repOpts{mode: core.ModeTyphoon, traced: true}, p)
	if err != nil {
		return result{}, false, fmt.Errorf("traced pass: %w", err)
	}
	u, t := combine(ureps), combine(treps)
	r.printE2E("untraced pass", u)
	r.printE2E("traced pass", t)

	steps, err := runLadder(r.in, r.spans)
	if err != nil {
		return result{}, false, err
	}

	fwd, _ := workloadByName("fwd-remote")
	ref := &runner{w: fwd, seed: r.seed, seconds: r.seconds, in: r.in, rng: r.rng, stdout: r.stdout}
	refPlan := plan{bursts: budget / 8, burstN: refBurst}
	typ, yviol, yatt, err := ref.reps(1, repOpts{mode: core.ModeTyphoon}, refPlan)
	if err != nil {
		return result{}, false, fmt.Errorf("typhoon reference: %w", err)
	}
	storm, sviol, satt, err := ref.reps(1, repOpts{mode: core.ModeStorm}, refPlan)
	if err != nil {
		return result{}, false, fmt.Errorf("storm reference: %w", err)
	}
	overStorm := combine(typ).tuplesPerS / combine(storm).tuplesPerS

	var viol violations
	for _, v := range []violations{uviol, tviol, yviol, sviol} {
		viol.add(v)
	}
	attempted := uatt + tatt + yatt + satt

	m := layerMetrics(r.w, treps[0], u, t, steps)
	m["typhoon_over_storm"] = metric{finite(overStorm), "ratio"}

	r.printLadder(steps, u)
	r.printLayers(m)
	r.printHops(hopDurations(treps[0].layer.traces))
	fmt.Fprintf(r.stdout, "reference (Fig 8a, fwd-remote closed loop): typhoon %.0f tuples/s, storm %.0f tuples/s, typhoon_over_storm %.3f\n",
		combine(typ).tuplesPerS, combine(storm).tuplesPerS, overStorm)
	self := r.spans.selfTimes()
	fmt.Fprintf(r.stdout, "span self time per layer (traced pass, sampled frames and the benchmark's own spans):\n")
	for _, l := range sortedLayers(self) {
		fmt.Fprintf(r.stdout, "  %-14s %12.3f ms\n", l, float64(self[l])/1e6)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, false, err
	}
	path := spanFile(outDir, r.w.name, r.seed)
	if err := r.spans.write(path); err != nil {
		return result{}, false, fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(r.stdout, "spans: %s (%d spans)\n", path, len(r.spans.spans))
	valid := r.printOutcome(append(ureps, treps...), viol, attempted)
	return result{Correct: viol.total() == 0, Attempted: attempted, Failed: viol.total(), Metrics: m}, valid, nil
}

// layerMetrics derives the per-layer metrics of the traced rep. u and t
// are the untraced and traced passes' end-to-end metrics.
func layerMetrics(w workload, rep *repResult, u, t e2e, steps []step) map[string]metric {
	d := rep.layer
	m := map[string]metric{}
	byName := map[string]step{}
	for _, s := range steps {
		byName[s.name] = s
	}
	m["tuple.encode_ns"] = metric{byName["tuple.encode"].perTuple, "ns"}
	m["tuple.decode_batch_ns"] = metric{byName["tuple.decode_batch"].perTuple, "ns"}
	m["tuple.allocs_per_tuple"] = metric{byName["tuple.encode"].allocsPer + byName["tuple.decode_batch"].allocsPer, "allocs"}
	m["packet.packetize_ns"] = metric{byName["packet.packetize"].perTuple, "ns"}
	m["packet.allocs_per_tuple"] = metric{byName["packet.packetize"].allocsPer, "allocs"}
	m["ring.enqdeq_ns"] = metric{byName["ring.enqdeq"].nsPerOp, "ns"}
	m["switchfabric.forward_ns"] = metric{byName["switchfabric.forward"].nsPerOp, "ns"}
	m["worker.transport_ns"] = metric{byName["worker.transport"].perTuple, "ns"}
	m["e2e.ns_per_tuple"] = metric{1e9 / u.tuplesPerS, "ns"}
	m["e2e.raw_tuples_per_s"] = metric{u.rawTuplesPerS, "tuples/s"}

	var src *nodeStats
	var sinkBusy, boltBusy []float64
	var stage []float64
	stageNode := "sink"
	if w.keyed {
		stageNode = "count"
	}
	for _, n := range d.nodes {
		if n.node == "src" {
			src = n
			continue
		}
		busy := float64(n.end.ProcNanos-n.start.ProcNanos) / float64(d.wall.Nanoseconds())
		boltBusy = append(boltBusy, busy)
		if n.node == "sink" {
			sinkBusy = append(sinkBusy, busy)
		}
		if n.node == stageNode {
			stage = append(stage, float64(n.end.Processed-n.start.Processed))
		}
	}
	records := float64(max(d.records, 1))
	if src != nil {
		sent := float64(src.trEnd.TuplesSent - src.trStart.TuplesSent)
		frames := float64(src.trEnd.FramesSent - src.trStart.FramesSent)
		m["packet.tuples_per_frame"] = metric{sent / math.Max(frames, 1), "tuples/frame"}
		m["packet.serializations_per_tuple"] = metric{
			float64(src.trEnd.Serializations-src.trStart.Serializations) / records, "ratio"}
		// Over the whole rep: warm-up trees complete inside the window.
		m["ack.completed_ratio"] = metric{float64(src.end.Completed) / float64(max(d.total, 1)), "ratio"}
		m["ack.replayed"] = metric{float64(src.end.Replayed - src.start.Replayed), "count"}
	}
	m["worker.sink_busy_share"] = metric{maxOf(sinkBusy), "ratio"}
	m["worker.bolt_busy_share_max"] = metric{maxOf(boltBusy), "ratio"}
	skew := 0.0
	if mu := mean(stage); mu > 0 {
		skew = maxOf(stage) / mu
	}
	m["worker.partition_skew"] = metric{skew, "ratio"}
	m["worker.in_queue_p99"] = metric{zeroNaN(percentile(d.workerQ, 0.99)), "tuples"}
	m["worker.emit_ns"] = metric{zeroNaN(median(d.emitNs)), "ns"}
	m["ring.port_queue_p99"] = metric{zeroNaN(percentile(d.portQ, 0.99)), "frames"}

	sw := d.switches
	m["switchfabric.microflow_hit_ratio"] = metric{
		float64(sw.MicroflowHits) / math.Max(float64(sw.MicroflowHits+sw.MicroflowMisses), 1), "ratio"}
	m["switchfabric.upcalls"] = metric{float64(sw.Upcalls), "count"}
	m["switchfabric.replicated_per_rx"] = metric{float64(sw.Replicated) / math.Max(float64(sw.RxFrames), 1), "ratio"}
	m["switchfabric.dropped_frames"] = metric{float64(sw.Dropped), "frames"}

	h := hopDurations(d.traces)
	m["hop.emit_mean_us"] = metric{mean(h[hopEmit]), "us"}
	m["hop.fabric_mean_us"] = metric{mean(h[hopFabric]), "us"}
	m["hop.dequeue_wait_mean_us"] = metric{mean(h[hopDequeue]), "us"}
	m["trace.frames"] = metric{float64(len(d.traces)), "count"}

	m["core.new_cluster_ms"] = metric{rep.newCluster * 1e3, "ms"}
	m["core.submit_ms"] = metric{rep.submit * 1e3, "ms"}
	m["core.first_tuple_ms"] = metric{(rep.setup - rep.newCluster - rep.submit) * 1e3, "ms"}

	late, lag := generator([]*repResult{rep})
	m["gen.late_p99_us"] = metric{late, "us"}
	m["ingest.lag_p99"] = metric{lag, "records"}

	for name, v := range u.unbounded() {
		m["e2e."+name] = v
	}
	m["trace.overhead_ratio"] = metric{t.tuplesPerS / u.tuplesPerS, "ratio"}
	um, tm := u.metrics(), t.metrics()
	for name, v := range u.unbounded() {
		um[name] = v
	}
	for name, v := range t.unbounded() {
		tm[name] = v
	}
	for name, v := range um {
		m["trace.overhead."+name] = metric{tm[name].Value / v.Value, "ratio"}
	}
	for name, v := range m {
		v.Value = finite(v.Value)
		m[name] = v
	}
	return m
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func (r *runner) printLadder(steps []step, u e2e) {
	fmt.Fprintf(r.stdout, "per-layer ladder (synchronous calls on the fwd-remote tuple shape, batch %d):\n", ladderBatch)
	fmt.Fprintf(r.stdout, "  %-22s %12s %12s %14s\n", "step", "ns/op", "ns/tuple", "allocs/tuple")
	for _, s := range steps {
		allocs := "timed only"
		if !math.IsNaN(s.allocsPer) {
			allocs = fmt.Sprintf("%.3f", s.allocsPer)
		}
		fmt.Fprintf(r.stdout, "  %-22s %12.1f %12.2f %14s\n", s.name, s.nsPerOp, s.perTuple, allocs)
	}
	fmt.Fprintf(r.stdout, "  %-22s %12s %12.2f   (1/tuples_per_s, untraced pass)\n", "end-to-end", "", 1e9/u.tuplesPerS)
}

func (r *runner) printLayers(m map[string]metric) {
	fmt.Fprintf(r.stdout, "per-layer metrics (traced pass):\n")
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(r.stdout, "  %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func (r *runner) printHops(h map[string][]float64) {
	fmt.Fprintf(r.stdout, "tuple-path hops from sampled traces (coarse 500 us clock: means are unbiased, percentiles are whole ticks,\n")
	fmt.Fprintf(r.stdout, "  and the switch stamps switch-in and egress from one clock read per batch):\n")
	for _, name := range []string{hopEmit, hopSwitch, hopTunnel, hopDequeue, hopFabric} {
		v := h[name]
		layer := hopLayers[name]
		if name == hopFabric {
			layer = "(whole fabric)"
		}
		fmt.Fprintf(r.stdout, "  %-20s %-14s n=%-6d mean %8.1f us  p50 %8.1f us  p99 %8.1f us\n",
			name, layer, len(v), mean(v), zeroNaN(percentile(v, 0.5)), zeroNaN(percentile(v, 0.99)))
	}
}
