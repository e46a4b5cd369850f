package worker

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"typhoon/internal/packet"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// busySpout's Next always has work: it emits one tuple per call and never
// returns false, so only the worker loop's own checks can pause it.
type busySpout struct{ n atomic.Int64 }

func (s *busySpout) Open(*Context) error  { return nil }
func (s *busySpout) Close(*Context) error { return nil }
func (s *busySpout) Next(ctx *Context) (bool, error) {
	ctx.Emit(tuple.Int(s.n.Add(1) - 1))
	return true, nil
}

// sleeper is a bolt that spends d of wall time per data tuple.
type sleeper struct{ d time.Duration }

func (s *sleeper) Open(*Context) error  { return nil }
func (s *sleeper) Close(*Context) error { return nil }
func (s *sleeper) Execute(_ *Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	time.Sleep(s.d)
	return nil
}

// loopBound is how long the worker loop may take to notice an event while
// its spout is never idle.
const loopBound = 2 * time.Second

// TestBusySpoutHonoursStopAndFail checks that a spout whose Next always has
// work still lets the loop act on Stop and on an injected failure within a
// bounded time. Deactivation, ROUTING tuples and the pending cap under a
// never-idle spout are covered by TestActivateDeactivate,
// TestRoutingControlTupleRedirects and TestMaxPendingBackpressure.
func TestBusySpoutHonoursStopAndFail(t *testing.T) {
	start := func(t *testing.T) *Worker {
		net := NewChanNetwork()
		startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, &terminal{}, net.Attach(2))
		src := startWorker(t, Config{
			App: 1, ID: 1, Node: "src", Source: true,
			Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
		}, &busySpout{}, net.Attach(1))
		waitFor(t, loopBound, func() bool { return src.StatsSnapshot().Emitted > 100 })
		return src
	}
	within := func(t *testing.T, what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { f(); close(done) }()
		select {
		case <-done:
		case <-time.After(loopBound):
			t.Fatalf("%s did not return within %v", what, loopBound)
		}
	}
	t.Run("Stop", func(t *testing.T) {
		src := start(t)
		within(t, "Stop", src.Stop)
	})
	t.Run("Fail", func(t *testing.T) {
		src := start(t)
		boom := errors.New("injected")
		src.Fail(boom)
		within(t, "Wait after Fail", src.Wait)
		if !errors.Is(src.ExitErr(), boom) {
			t.Fatalf("ExitErr = %v, want %v", src.ExitErr(), boom)
		}
	})
}

// TestProcNanosCountsExecuteTime checks the per-batch execute timing: a
// bolt that sleeps d per tuple reports at least n·d and at most the wall
// time the n tuples took.
func TestProcNanosCountsExecuteTime(t *testing.T) {
	const n, d = 20, 2 * time.Millisecond
	net := NewChanNetwork()
	bolt := &sleeper{d: d}
	w := startWorker(t, Config{App: 1, ID: 2, Node: "sleeper"}, bolt, net.Attach(2))
	ctl := net.Attach(99)
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = ctl.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(int64(i))))
	}
	waitFor(t, 5*time.Second, func() bool { return w.StatsSnapshot().Processed == n })
	wall := time.Since(start)
	proc := time.Duration(w.StatsSnapshot().ProcNanos)
	if proc < n*d || proc > wall {
		t.Fatalf("ProcNanos = %v, want within [%v, %v]", proc, n*d, wall)
	}
}

// TestProcNanosExcludesRateLimitWait checks that a rate-limited bolt's
// waits for tokens are not counted as execute time.
func TestProcNanosExcludesRateLimitWait(t *testing.T) {
	const n, rate = 20, 100 // ~0.2 s of token waits for a no-op bolt
	net := NewChanNetwork()
	bolt := &terminal{}
	w := startWorker(t, Config{App: 1, ID: 2, Node: "limited", RateLimit: rate}, bolt, net.Attach(2))
	ctl := net.Attach(99)
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = ctl.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(int64(i))))
	}
	waitFor(t, 5*time.Second, func() bool { return w.StatsSnapshot().Processed == n })
	wall := time.Since(start)
	proc := time.Duration(w.StatsSnapshot().ProcNanos)
	if wall < 100*time.Millisecond {
		t.Fatalf("rate limit not applied: %d tuples in %v", n, wall)
	}
	if proc > wall/4 {
		t.Fatalf("ProcNanos = %v of %v wall: rate-limit waits counted as execute time", proc, wall)
	}
}

// valueCollector records every data tuple's values.
type valueCollector struct {
	mu   sync.Mutex
	seen [][]tuple.Value
}

func (c *valueCollector) Open(*Context) error  { return nil }
func (c *valueCollector) Close(*Context) error { return nil }
func (c *valueCollector) Execute(_ *Context, in tuple.Tuple) error {
	if in.Stream != tuple.DefaultStream {
		return nil
	}
	c.mu.Lock()
	c.seen = append(c.seen, in.Values)
	c.mu.Unlock()
	return nil
}

func (c *valueCollector) snapshot() [][]tuple.Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]tuple.Value(nil), c.seen...)
}

// labelSource emits (i, "label-i") for i < limit.
type labelSource struct{ n, limit int64 }

func (s *labelSource) Open(*Context) error  { return nil }
func (s *labelSource) Close(*Context) error { return nil }
func (s *labelSource) Next(ctx *Context) (bool, error) {
	if s.n >= s.limit {
		return false, nil
	}
	ctx.Emit(tuple.Int(s.n), tuple.String(label(s.n)))
	s.n++
	return true, nil
}

func label(i int64) string { return "label-" + string(rune('a'+i)) }

// TestReplayCarriesOriginalValues pins the pending-entry copy: the values
// an acked spout emits go through the worker's reusable scratch, so the
// entry kept for replay must own a copy. Replays happen after later emits
// (and the acker INITs) have overwritten that scratch.
func TestReplayCarriesOriginalValues(t *testing.T) {
	const limit = 5
	net := NewChanNetwork()
	deadAck := topology.Route{
		Edge:     topology.EdgeSpec{From: "src", To: "__acker", Policy: topology.Fields, HashFields: []int{1}, Stream: tuple.AckStream},
		NextHops: []topology.WorkerID{42},
	}
	sink := &valueCollector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	src := startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true, Acking: true,
		AckTimeout: 50 * time.Millisecond,
		Routes:     []topology.Route{dataRoute(2, topology.Shuffle), deadAck},
	}, &labelSource{limit: limit}, net.Attach(1))

	waitFor(t, 10*time.Second, func() bool { return src.StatsSnapshot().Replayed >= 2*limit })
	seen := sink.snapshot()
	counts := make(map[int64]int)
	for _, vs := range seen {
		if len(vs) != 2 {
			t.Fatalf("tuple has %d fields, want 2: %v", len(vs), vs)
		}
		i := vs[0].AsInt()
		if i < 0 || i >= limit || vs[1].AsString() != label(i) {
			t.Fatalf("delivered (%d, %q): not an emitted tuple", i, vs[1].AsString())
		}
		counts[i]++
	}
	for i := int64(0); i < limit; i++ {
		if counts[i] < 2 {
			t.Fatalf("value %d delivered %d times, want original plus replays", i, counts[i])
		}
	}
}

// TestChanTransportCopiesBorrowedValues checks the Send ownership rule on
// the in-process transport: the sender may overwrite t.Values as soon as
// Send returns, and the receiver still sees what was sent.
func TestChanTransportCopiesBorrowedValues(t *testing.T) {
	net := NewChanNetwork()
	tx, rx := net.Attach(1), net.Attach(2)
	scratch := make([]tuple.Value, 1)
	for i := 0; i < 10; i++ {
		scratch[0] = tuple.Int(int64(i))
		_ = tx.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(scratch...))
	}
	scratch[0] = tuple.Int(-1)
	got, err := rx.Recv(64, time.Second)
	if err != nil || len(got) != 10 {
		t.Fatalf("Recv: %d tuples, err %v", len(got), err)
	}
	for i, tp := range got {
		if v := tp.Field(0).AsInt(); v != int64(i) {
			t.Fatalf("tuple %d carries %d: the transport kept the sender's scratch", i, v)
		}
	}
}

// TestEmitAllocs guards the unacked emit path — Context.Emit through the
// Router and SDNTransport.Send — at the fwd-remote tuple shape. It measures
// synchronous calls only: the switch is never started, so no pump runs
// while AllocsPerRun reads the allocation counters, and the frame pool is
// primed so the packetizer's buffers come from it as in steady state.
func TestEmitAllocs(t *testing.T) {
	const perRun, runs = 100, 50
	sw := switchfabric.New("h1", 1, switchfabric.Options{RingCapacity: 4096})
	port, err := sw.AddPort("w1", packet.WorkerAddr(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewSDNTransport(1, 1, port, SDNTransportConfig{BatchSize: perRun, FlushDeadline: -1})
	RegisterLogic("test/allocs/src", func() Component { return &busySpout{} })
	w, err := New(Config{
		App: 1, ID: 1, Node: "src", Source: true, Logic: "test/allocs/src",
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, 2*runs)
	for i := range bufs {
		bufs[i] = packet.GetFrameBuf()
	}
	for _, b := range bufs {
		packet.PutFrameBuf(b)
	}
	payload := "0123456789abcdef"
	var seq int64
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < perRun; i++ {
			w.ctx.Emit(tuple.Int(seq), tuple.String(payload))
			seq++
		}
	})
	if per := allocs / perRun; per > 0.05 {
		t.Fatalf("emit path allocates %.3f per tuple, want <= 0.05", per)
	}
	if got := w.StatsSnapshot().Emitted; got != uint64((runs+1)*perRun) {
		t.Fatalf("emitted %d, want %d", got, (runs+1)*perRun)
	}
}
