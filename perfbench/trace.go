package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"typhoon/internal/core"
	"typhoon/internal/observe"
	"typhoon/internal/packet"
	"typhoon/internal/switchfabric"
	"typhoon/internal/worker"
)

// traceSampleEvery is the traced run's frame sampling period
// (core.WithTraceEvery).
const traceSampleEvery = 16

// Sampling periods of the traced run's pollers.
const (
	tracePollEvery = 20 * time.Millisecond
	queuePollEvery = 5 * time.Millisecond
	heapPollEvery  = 2 * time.Millisecond
)

// span is one timed interval at a layer boundary. Spans of one tuple-path
// trace share Trace; a hop span's Parent is the trace's frame span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log drops
// everything, which is how untraced runs stay free of span bookkeeping.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	next  uint64
}

// benchTraceBit marks trace IDs the benchmark allocates for its own spans,
// keeping them apart from the program's sampled-frame trace IDs.
const benchTraceBit = 1 << 63

func (l *spanLog) addSpan(s span) {
	l.next++
	s.ID = l.next
	if s.Trace == 0 {
		s.Trace = benchTraceBit | s.ID
	}
	l.spans = append(l.spans, s)
}

func (l *spanLog) add(name, layer string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addSpan(span{Name: name, Layer: layer, Start: start.UnixNano(), End: end.UnixNano()})
}

func (l *spanLog) addAll(spans []span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range spans {
		l.addSpan(s)
	}
}

// Hop stretches of a traced frame's path, each owned by one layer.
const (
	hopEmit    = "emit->switch-in"   // ring: ingress wait until the pump picks it up
	hopSwitch  = "switch-in->egress" // switchfabric: lookup and delivery (or tunnel)
	hopTunnel  = "tunnel->switch-in" // core.tunnel: TCP to the remote switch
	hopDequeue = "egress->dequeue"   // worker: egress wait until the worker reads it
)

var hopLayers = map[string]string{
	hopEmit: "ring", hopSwitch: "switchfabric", hopTunnel: "core.tunnel", hopDequeue: "worker",
}

// hopFabric is a frame's whole way from its emit to its last egress: the
// ingress ring, every switch and any tunnel. It is not a span of its own,
// since the stretches above already cover it. Unlike the tunnel stretch it
// exists on every workload, so a tunnel change shows in it where there is a
// tunnel and leaves it alone where there is none.
const hopFabric = "emit->egress"

// hopInterval is one stretch of a frame's path.
type hopInterval struct {
	name       string
	start, end int64
}

// hopIntervals splits a hop chain at layer boundaries. The switch stretch
// runs from switch-in across the match to the egress or tunnel hop.
func hopIntervals(chain []packet.TraceHop) []hopInterval {
	var out []hopInterval
	var switchIn int64
	for i := 1; i < len(chain); i++ {
		prev, cur := chain[i-1], chain[i]
		switch {
		case cur.Kind == packet.HopSwitchIn && prev.Kind == packet.HopEmit:
			out = append(out, hopInterval{hopEmit, prev.At, cur.At})
		case cur.Kind == packet.HopSwitchIn && prev.Kind == packet.HopTunnel:
			out = append(out, hopInterval{hopTunnel, prev.At, cur.At})
		case (cur.Kind == packet.HopEgress || cur.Kind == packet.HopTunnel) && switchIn != 0:
			out = append(out, hopInterval{hopSwitch, switchIn, cur.At})
		case cur.Kind == packet.HopDequeue && prev.Kind == packet.HopEgress:
			out = append(out, hopInterval{hopDequeue, prev.At, cur.At})
		}
		if cur.Kind == packet.HopSwitchIn {
			switchIn = cur.At
		}
	}
	return out
}

// addTraces turns each trace's hop chain into a frame span with one child
// span per hop interval, all sharing the program's trace ID.
func (l *spanLog) addTraces(traces []observe.TraceRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, tr := range traces {
		if len(tr.Hops) < 2 {
			continue
		}
		l.addSpan(span{Trace: tr.ID, Name: "frame", Layer: "path",
			Start: tr.Hops[0].At, End: tr.Hops[len(tr.Hops)-1].At})
		root := l.next
		for _, h := range hopIntervals(tr.Hops) {
			l.addSpan(span{Trace: tr.ID, Parent: root, Name: h.name, Layer: hopLayers[h.name],
				Start: h.start, End: h.end})
		}
	}
}

// selfTimes sums each layer's self time: a span's duration minus the part
// its children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make(map[uint64]int64)
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		out[s.Layer] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapSampler records the peak of HeapInuse (live and not-yet-swept heap
// objects plus unused space in in-use spans) without stopping the world.
type heapSampler struct {
	stopCh chan struct{}
	done   chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		var peak uint64
		t := time.NewTicker(heapPollEvery)
		defer t.Stop()
		for {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopCh:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	return <-h.done
}

// nodeStats are one worker's counters at the start and end of the
// measured window.
type nodeStats struct {
	node       string
	w          *worker.Worker
	start, end worker.Stats
	trStart    worker.TransportStats
	trEnd      worker.TransportStats
}

// layerData is what the traced rep learns about each layer.
type layerData struct {
	wall time.Duration
	// records is how many records the spout was handed in the window;
	// total adds the warm-up round before it.
	records, total int64
	traces         []observe.TraceRecord
	portQ          []float64
	workerQ        []float64
	nodes          []*nodeStats
	switches       switchfabric.Counters
	emitNs         []float64
}

// layerProbe polls the cluster's public observation points during the
// measured window of a traced rep.
type layerProbe struct {
	c      *core.Cluster
	w      workload
	start  time.Time
	swBase map[string]switchfabric.Counters
	nodes  []*nodeStats
	stopCh chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	seen    map[[2]uint64]bool
	traces  []observe.TraceRecord
	portQ   []float64
	workerQ []float64
}

func (w workload) nodeNames() []string {
	if w.keyed {
		return []string{"src", "count", "sink", "__acker"}
	}
	return []string{"src", "sink"}
}

func startLayerProbe(c *core.Cluster, w workload) *layerProbe {
	p := &layerProbe{c: c, w: w, start: time.Now(), stopCh: make(chan struct{}),
		seen: make(map[[2]uint64]bool), swBase: make(map[string]switchfabric.Counters)}
	for _, node := range w.nodeNames() {
		for _, wk := range c.WorkersOf(topoName, node) {
			p.nodes = append(p.nodes, &nodeStats{node: node, w: wk,
				start: wk.StatsSnapshot(), trStart: wk.Transport().Stats()})
		}
	}
	for _, h := range hostNames(w.hosts) {
		if sw := c.Host(h).Switch; sw != nil {
			p.swBase[h] = sw.CountersSnapshot()
		}
	}
	p.wg.Add(2)
	go p.pollTraces()
	go p.pollQueues()
	return p
}

func (p *layerProbe) pollTraces() {
	defer p.wg.Done()
	t := time.NewTicker(tracePollEvery)
	defer t.Stop()
	for {
		p.collectTraces()
		select {
		case <-p.stopCh:
			p.collectTraces()
			return
		case <-t.C:
		}
	}
}

// collectTraces de-duplicates the trace log's window. A replicated frame
// completes once per receiving worker under one trace ID, so the key is
// the ID together with the dequeuing worker.
func (p *layerProbe) collectTraces() {
	recent := p.c.Obs.Traces.Recent(0)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, tr := range recent {
		var actor uint64
		if n := len(tr.Hops); n > 0 {
			actor = tr.Hops[n-1].Actor
		}
		k := [2]uint64{tr.ID, actor}
		if !p.seen[k] {
			p.seen[k] = true
			p.traces = append(p.traces, tr)
		}
	}
}

func (p *layerProbe) pollQueues() {
	defer p.wg.Done()
	t := time.NewTicker(queuePollEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-t.C:
		}
		portMax := 0
		for _, h := range hostNames(p.w.hosts) {
			sw := p.c.Host(h).Switch
			if sw == nil {
				continue
			}
			for _, pi := range sw.Ports() {
				if port := sw.Port(pi.No); port != nil && port.QueueLen() > portMax {
					portMax = port.QueueLen()
				}
			}
		}
		workerMax := 0
		for _, n := range p.nodes {
			if q := n.w.StatsSnapshot().QueueLen; q > workerMax {
				workerMax = q
			}
		}
		p.mu.Lock()
		p.portQ = append(p.portQ, float64(portMax))
		p.workerQ = append(p.workerQ, float64(workerMax))
		p.mu.Unlock()
	}
}

// stop ends polling and returns the window's data.
func (p *layerProbe) stop(records, total int64) *layerData {
	close(p.stopCh)
	p.wg.Wait()
	d := &layerData{wall: time.Since(p.start), records: records, total: total, nodes: p.nodes}
	for _, n := range p.nodes {
		n.end = n.w.StatsSnapshot()
		n.trEnd = n.w.Transport().Stats()
	}
	for h, base := range p.swBase {
		cur := p.c.Host(h).Switch.CountersSnapshot()
		d.switches.RxFrames += cur.RxFrames - base.RxFrames
		d.switches.Replicated += cur.Replicated - base.Replicated
		d.switches.Dropped += cur.Dropped - base.Dropped
		d.switches.MicroflowHits += cur.MicroflowHits - base.MicroflowHits
		d.switches.MicroflowMisses += cur.MicroflowMisses - base.MicroflowMisses
		d.switches.Upcalls += cur.Upcalls - base.Upcalls
	}
	p.mu.Lock()
	d.traces, d.portQ, d.workerQ = p.traces, p.portQ, p.workerQ
	p.mu.Unlock()
	return d
}

// hopDurations gathers each hop stretch's durations in µs from trace
// annexes. The program stamps hops with its coarse clock (internal/clock,
// 500 µs ticks), so one stretch reads as a whole number of ticks; the mean
// over many frames is still an unbiased estimate of the true time because
// tick phase is independent of the frames. The switch stamps switch-in
// and egress from one clock read per batch, so its stretch always reads 0.
func hopDurations(traces []observe.TraceRecord) map[string][]float64 {
	out := make(map[string][]float64)
	for _, tr := range traces {
		for _, h := range hopIntervals(tr.Hops) {
			out[h.name] = append(out[h.name], float64(h.end-h.start)/1e3)
		}
		if len(tr.Hops) == 0 || tr.Hops[0].Kind != packet.HopEmit {
			continue
		}
		for i := len(tr.Hops) - 1; i > 0; i-- {
			if tr.Hops[i].Kind == packet.HopEgress {
				out[hopFabric] = append(out[hopFabric], float64(tr.Hops[i].At-tr.Hops[0].At)/1e3)
				break
			}
		}
	}
	return out
}

func sortedLayers(m map[string]time.Duration) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func spanFile(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
