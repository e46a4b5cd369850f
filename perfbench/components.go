package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// Logic names of the benchmark's own components. The benchmark owns its
// spout, bolts, key generator and checkers, so a change to the program moves
// the numbers only through the framework's layers.
const (
	envKey     = "perfbench"
	logicSrc   = "perfbench/src"
	logicCount = "perfbench/count"
	logicSink  = "perfbench/sink"
)

// numStrings is how many distinct payload strings and key names the seed
// generates; payloadLen is the byte length of each.
const (
	numStrings = 4096
	payloadLen = 16
	// emitSampleEvery is the traced run's sampling period for timing
	// ctx.Emit in the spout.
	emitSampleEvery = 64
)

func init() {
	worker.RegisterLogic(logicSrc, func() worker.Component { return &spout{} })
	worker.RegisterLogic(logicCount, func() worker.Component { return &counter{} })
	worker.RegisterLogic(logicSink, func() worker.Component { return &sink{} })
}

// rec is one generated input record.
type rec struct {
	// seq is the record's position in the rep's stream, from 0.
	seq int64
	// key indexes inputs.keys (keyed workload only).
	key int32
	// keySeq is the 1-based position of the record within its key's
	// stream (keyed workload only).
	keySeq int64
	// intended is the record's send time on the open-loop schedule, in
	// nanoseconds since the run's time base; 0 for closed-loop bursts.
	intended int64
}

// inputs are the seeded strings every rep draws from.
type inputs struct {
	payloads []string
	keys     []string
	keyIndex map[string]int32
}

func newInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	in := &inputs{keyIndex: make(map[string]int32, numStrings)}
	buf := make([]byte, payloadLen)
	for i := 0; i < numStrings; i++ {
		for j := range buf {
			buf[j] = letters[rng.Intn(len(letters))]
		}
		in.payloads = append(in.payloads, string(buf))
		k := fmt.Sprintf("key-%04d-%s", i, buf[:7])
		in.keys = append(in.keys, k)
		in.keyIndex[k] = int32(i)
	}
	return in
}

func (in *inputs) payload(seq int64) string { return in.payloads[seq%numStrings] }

// burst is one closed-loop round: the spout emits recs as fast as the
// framework admits them.
type burst struct {
	recs      []rec
	next      atomic.Int64
	firstEmit atomic.Int64
}

// runState is shared, through the cluster's SharedEnv, by the benchmark's
// components and the client driving one rep.
type runState struct {
	in    *inputs
	keyed bool
	base  time.Time
	sinks []*sinkState

	burst atomic.Pointer[burst]
	feed  atomic.Pointer[chan rec]

	// traced turns on sampled timing of ctx.Emit in the spout.
	traced   bool
	emitMu   sync.Mutex
	emitNs   []int64
	emitSpan []span
}

func newRunState(in *inputs, keyed bool, sinks int, base time.Time, traced bool) *runState {
	st := &runState{in: in, keyed: keyed, base: base, traced: traced}
	for i := 0; i < sinks; i++ {
		st.sinks = append(st.sinks, newSinkState(keyed))
	}
	return st
}

// now is the monotonic time since the run's base, in nanoseconds.
func (st *runState) now() int64 { return int64(time.Since(st.base)) }

// next hands the spout its next record: the active burst first, then the
// open-loop feed.
func (st *runState) next() (rec, bool) {
	if b := st.burst.Load(); b != nil {
		i := b.next.Add(1) - 1
		if i < int64(len(b.recs)) {
			if i == 0 {
				b.firstEmit.Store(st.now())
			}
			return b.recs[i], true
		}
		return rec{}, false
	}
	if f := st.feed.Load(); f != nil {
		select {
		case r := <-*f:
			return r, true
		default:
		}
	}
	return rec{}, false
}

func (st *runState) emit(ctx *worker.Context, r rec) {
	sampled := st.traced && r.seq%emitSampleEvery == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	switch {
	case st.keyed:
		ctx.Emit(tuple.String(st.in.keys[r.key]), tuple.Int(r.keySeq), tuple.Int(r.seq), tuple.Int(r.intended))
	case r.intended != 0:
		ctx.Emit(tuple.Int(r.seq), tuple.String(st.in.payload(r.seq)), tuple.Int(r.intended))
	default:
		ctx.Emit(tuple.Int(r.seq), tuple.String(st.in.payload(r.seq)))
	}
	if sampled {
		t1 := time.Now()
		st.emitMu.Lock()
		st.emitNs = append(st.emitNs, int64(t1.Sub(t0)))
		st.emitSpan = append(st.emitSpan, span{Name: "Context.Emit", Layer: "worker",
			Start: t0.UnixNano(), End: t1.UnixNano()})
		st.emitMu.Unlock()
	}
}

// spout emits the client's records, one per Next call, so the worker
// loop's per-iteration cost is part of every tuple's cost.
type spout struct{ st *runState }

func (s *spout) Open(ctx *worker.Context) error {
	st, ok := ctx.Env().Get(envKey).(*runState)
	if !ok {
		return fmt.Errorf("perfbench: run state missing from the shared env")
	}
	s.st = st
	return nil
}

func (s *spout) Close(*worker.Context) error { return nil }

func (s *spout) Next(ctx *worker.Context) (bool, error) {
	r, ok := s.st.next()
	if !ok {
		return false, nil
	}
	s.st.emit(ctx, r)
	return true, nil
}

// counter is the keyed workload's stateful per-key counting stage. It
// forwards each record with the key's running count, which the sink checks
// against the record's position in its key's stream.
type counter struct{ counts map[string]int64 }

func (c *counter) Open(*worker.Context) error {
	c.counts = make(map[string]int64)
	return nil
}

func (c *counter) Close(*worker.Context) error { return nil }

func (c *counter) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream != tuple.DefaultStream {
		return nil
	}
	key := in.Field(0).AsString()
	n := c.counts[key] + 1
	c.counts[key] = n
	ctx.Emit(in.Field(0), in.Field(1), tuple.Int(n), in.Field(2), in.Field(3))
	return nil
}

// sinkState is one sink instance's checker and measurement window. The
// sink's worker goroutine writes it; the client reads it under mu.
type sinkState struct {
	mu      sync.Mutex
	chk     *checker
	firstAt int64

	// Closed-loop round in progress.
	burstFirst, burstN, burstCount int64
	burstDoneAt                    int64
	burstDone                      atomic.Bool

	// Open-loop stage in progress: arrival times indexed by seq-stageFirst.
	stageFirst int64
	arrivals   []int64
	stageCount atomic.Int64
}

func newSinkState(keyed bool) *sinkState {
	keys := 0
	if keyed {
		keys = numStrings
	}
	return &sinkState{chk: newChecker(keys)}
}

func (s *sinkState) startBurst(first, n int64) {
	s.mu.Lock()
	s.burstFirst, s.burstN, s.burstCount, s.burstDoneAt = first, n, 0, 0
	s.burstDone.Store(false)
	s.mu.Unlock()
}

func (s *sinkState) startStage(first int64, n int) {
	s.mu.Lock()
	s.stageFirst = first
	s.arrivals = make([]int64, n)
	s.stageCount.Store(0)
	s.mu.Unlock()
}

// endStage detaches and returns the stage's arrival times.
func (s *sinkState) endStage() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.arrivals
	s.arrivals = nil
	return a
}

type sink struct {
	st *runState
	s  *sinkState
}

func (k *sink) Open(ctx *worker.Context) error {
	st, ok := ctx.Env().Get(envKey).(*runState)
	if !ok {
		return fmt.Errorf("perfbench: run state missing from the shared env")
	}
	if ctx.Index() >= len(st.sinks) {
		return fmt.Errorf("perfbench: sink index %d out of range", ctx.Index())
	}
	k.st, k.s = st, st.sinks[ctx.Index()]
	return nil
}

func (k *sink) Close(*worker.Context) error { return nil }

func (k *sink) Execute(_ *worker.Context, in tuple.Tuple) error {
	if in.Stream != tuple.DefaultStream {
		return nil
	}
	st, s := k.st, k.s
	var seq, intended int64
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.keyed {
		key, ok := st.in.keyIndex[in.Field(0).AsString()]
		keySeq, count := in.Field(1).AsInt(), in.Field(2).AsInt()
		seq, intended = in.Field(3).AsInt(), in.Field(4).AsInt()
		s.chk.observe(seq, int(key), keySeq, ok && count == keySeq)
	} else {
		seq = in.Field(0).AsInt()
		if in.Len() > 2 {
			intended = in.Field(2).AsInt()
		}
		s.chk.observe(seq, 0, 0, in.Field(1).AsString() == st.in.payload(seq))
	}
	if s.firstAt == 0 {
		s.firstAt = st.now()
	}
	if s.burstN > 0 && seq >= s.burstFirst && seq < s.burstFirst+s.burstN {
		s.burstCount++
		if s.burstCount == s.burstN {
			s.burstDoneAt = st.now()
			s.burstDone.Store(true)
		}
	}
	if intended != 0 && s.arrivals != nil {
		if i := seq - s.stageFirst; i >= 0 && i < int64(len(s.arrivals)) && s.arrivals[i] == 0 {
			s.arrivals[i] = st.now()
			s.stageCount.Add(1)
		}
	}
	return nil
}
