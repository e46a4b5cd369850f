package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/ring"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// The ladder times synchronous calls into each data-plane layer's public
// functions on the fwd-remote tuple shape, so the gap between the fastest
// layer and the end-to-end cost per tuple can be attributed layer by layer.
// Allocations are counted only around calls that run on the calling
// goroutine, never across a switch pump running concurrently.

// ladderBatch is the tuples per frame of the ladder's frames: the
// framework's default batch size.
const ladderBatch = worker.DefaultBatchSize

// ladderReps is how many timed repetitions each step takes; the step's
// figure is their median.
const ladderReps = 5

// step is one rung: its cost per tuple, and its allocations per tuple
// where the step is synchronous (NaN otherwise).
type step struct {
	name      string
	layer     string
	nsPerOp   float64
	perTuple  float64
	allocsPer float64
}

// timeIt runs fn(ops) ladderReps times and returns the median ns per op.
func timeIt(ops int, fn func(n int)) float64 {
	fn(ops / 10) // warm caches and pools
	var per []float64
	for r := 0; r < ladderReps; r++ {
		t0 := time.Now()
		fn(ops)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(per)
}

// allocsPer counts heap allocations per op of fn(ops) run on this
// goroutine.
func allocsPer(ops int, fn func(n int)) float64 {
	fn(ops / 10)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn(ops)
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(ops)
}

func shapeTuple(in *inputs, seq int64) tuple.Tuple {
	return tuple.New(tuple.Int(seq), tuple.String(in.payload(seq)))
}

// runLadder measures every rung and records one span per rung.
func runLadder(in *inputs, spans *spanLog) ([]step, error) {
	var steps []step
	record := func(s step, t0 time.Time) {
		steps = append(steps, s)
		spans.add("ladder."+s.name, s.layer, t0, time.Now())
	}

	// tuple: encode one tuple; decode a frame payload of ladderBatch.
	t0 := time.Now()
	tp := shapeTuple(in, 12345)
	var buf []byte
	encode := func(n int) {
		for i := 0; i < n; i++ {
			buf = tuple.AppendEncode(buf[:0], tp)
		}
	}
	ns := timeIt(200000, encode)
	record(step{name: "tuple.encode", layer: "tuple", nsPerOp: ns, perTuple: ns,
		allocsPer: allocsPer(200000, encode)}, t0)

	t0 = time.Now()
	var run []byte
	for i := 0; i < ladderBatch; i++ {
		enc := tuple.Encode(shapeTuple(in, int64(i)))
		run = binary.LittleEndian.AppendUint32(run, uint32(len(enc)))
		run = append(run, enc...)
	}
	var arena tuple.Arena
	var dst []tuple.Tuple
	var decErr error
	decode := func(n int) {
		for i := 0; i < n; i++ {
			dst, decErr = tuple.DecodeBatch(run, dst[:0], &arena)
		}
	}
	if decode(1); decErr != nil || len(dst) != ladderBatch {
		return nil, fmt.Errorf("ladder: decode batch: %v (%d tuples)", decErr, len(dst))
	}
	ns = timeIt(4000, decode)
	record(step{name: "tuple.decode_batch", layer: "tuple", nsPerOp: ns, perTuple: ns / ladderBatch,
		allocsPer: allocsPer(4000, decode) / ladderBatch}, t0)

	// packet: stage encoded tuples into frames toward one destination.
	t0 = time.Now()
	src, dstAddr := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	pk := packet.NewPacketizer(src, 0)
	enc := tuple.Encode(tp)
	packetize := func(n int) {
		for i := 0; i < n; i++ {
			for _, f := range pk.Add(dstAddr, enc) {
				packet.PutFrameBuf(f)
			}
			if (i+1)%ladderBatch == 0 {
				for _, f := range pk.FlushAll() {
					packet.PutFrameBuf(f)
				}
			}
		}
	}
	ns = timeIt(200000, packetize)
	record(step{name: "packet.packetize", layer: "packet", nsPerOp: ns, perTuple: ns,
		allocsPer: allocsPer(200000, packetize)}, t0)

	// One full workload frame for the frame-level rungs. It is not pooled,
	// so writing it repeatedly is safe: PutFrameBuf ignores it.
	encs := make([][]byte, ladderBatch)
	for i := range encs {
		encs[i] = tuple.Encode(shapeTuple(in, int64(i)))
	}
	frame := packet.EncodeTuples(dstAddr, src, encs)

	// ring: enqueue then dequeue one frame on the same goroutine.
	t0 = time.Now()
	rg := ring.New(0)
	var ringErr error
	enqdeq := func(n int) {
		for i := 0; i < n; i++ {
			rg.TryEnqueue(frame)
			if _, err := rg.Dequeue(); err != nil {
				ringErr = err
			}
		}
	}
	ns = timeIt(200000, enqdeq)
	if ringErr != nil {
		return nil, fmt.Errorf("ladder: ring: %w", ringErr)
	}
	record(step{name: "ring.enqdeq", layer: "ring", nsPerOp: ns, perTuple: ns / ladderBatch,
		allocsPer: allocsPer(200000, enqdeq) / ladderBatch}, t0)

	// switchfabric: frames in through one port and out of another through
	// the running pump, 64 at a time. Timed only: the pump runs on its
	// own goroutine.
	t0 = time.Now()
	fwdNs, err := ladderSwitch(frame, src, dstAddr)
	if err != nil {
		return nil, err
	}
	record(step{name: "switchfabric.forward", layer: "switchfabric", nsPerOp: fwdNs,
		perTuple: fwdNs / ladderBatch, allocsPer: math.NaN()}, t0)

	// worker.SDNTransport: Send a batch to a peer transport through a
	// switch and Recv it there. Timed only, for the same reason.
	t0 = time.Now()
	trNs, err := ladderTransport(in)
	if err != nil {
		return nil, err
	}
	record(step{name: "worker.transport", layer: "worker", nsPerOp: trNs, perTuple: trNs,
		allocsPer: math.NaN()}, t0)
	return steps, nil
}

// twoPortSwitch builds a started switch forwarding port 1 to port 2.
func twoPortSwitch(a1, a2 packet.Addr) (*switchfabric.Switch, *switchfabric.Port, *switchfabric.Port, error) {
	sw := switchfabric.New("ladder", 99)
	sw.Start()
	p1, err := sw.AddPort("p1", a1)
	if err != nil {
		sw.Stop()
		return nil, nil, nil, err
	}
	p2, err := sw.AddPort("p2", a2)
	if err != nil {
		sw.Stop()
		return nil, nil, nil, err
	}
	err = sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: p1.No(), DlDst: a2, EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.Output(p2.No())},
	})
	if err != nil {
		sw.Stop()
		return nil, nil, nil, err
	}
	return sw, p1, p2, nil
}

func ladderSwitch(frame []byte, a1, a2 packet.Addr) (float64, error) {
	sw, p1, p2, err := twoPortSwitch(a1, a2)
	if err != nil {
		return 0, fmt.Errorf("ladder: switch: %w", err)
	}
	defer sw.Stop()
	const perBatch = 64
	var scratch [][]byte
	var fwdErr error
	forward := func(n int) {
		for done := 0; done < n && fwdErr == nil; done += perBatch {
			for i := 0; i < perBatch; i++ {
				if !p1.WriteFrame(frame) {
					fwdErr = fmt.Errorf("ingress ring full")
					return
				}
			}
			for got := 0; got < perBatch; {
				frames, err := p2.ReadBatch(scratch[:0], perBatch, time.Second)
				if err != nil || len(frames) == 0 {
					fwdErr = fmt.Errorf("frame not forwarded: %v", err)
					return
				}
				got += len(frames)
				scratch = frames
			}
		}
	}
	ns := timeIt(64000, forward)
	if fwdErr != nil {
		return 0, fmt.Errorf("ladder: switch: %w", fwdErr)
	}
	return ns, nil
}

func ladderTransport(in *inputs) (float64, error) {
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	sw, p1, p2, err := twoPortSwitch(a1, a2)
	if err != nil {
		return 0, fmt.Errorf("ladder: transport: %w", err)
	}
	defer sw.Stop()
	tx := worker.NewSDNTransport(1, 1, p1, worker.SDNTransportConfig{})
	rx := worker.NewSDNTransport(1, 2, p2, worker.SDNTransportConfig{})
	dest := worker.Destination{Workers: []topology.WorkerID{2}}
	tp := shapeTuple(in, 777)
	var trErr error
	roundTrip := func(n int) {
		for done := 0; done < n && trErr == nil; done += ladderBatch {
			for i := 0; i < ladderBatch; i++ {
				if err := tx.Send(dest, tp); err != nil {
					trErr = err
					return
				}
			}
			if err := tx.Flush(); err != nil {
				trErr = err
				return
			}
			for got := 0; got < ladderBatch; {
				ts, err := rx.Recv(256, time.Second)
				if err != nil || len(ts) == 0 {
					trErr = fmt.Errorf("tuples not delivered: %v", err)
					return
				}
				got += len(ts)
			}
		}
	}
	ns := timeIt(100000, roundTrip)
	if trErr != nil {
		return 0, fmt.Errorf("ladder: transport: %w", trErr)
	}
	return ns, nil
}
