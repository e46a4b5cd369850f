package worker

import (
	"reflect"
	"testing"

	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

func route(policy topology.RoutingPolicy, hops []topology.WorkerID, fields ...int) topology.Route {
	return topology.Route{
		Edge:     topology.EdgeSpec{From: "a", To: "b", Policy: policy, HashFields: fields},
		NextHops: hops,
	}
}

func TestShuffleRoundRobin(t *testing.T) {
	r := NewRouter([]topology.Route{route(topology.Shuffle, []topology.WorkerID{1, 2, 3})})
	var got []topology.WorkerID
	for i := 0; i < 6; i++ {
		d := r.RouteInto(nil, tuple.New(tuple.Int(int64(i))))
		if len(d) != 1 || len(d[0].Workers) != 1 {
			t.Fatalf("dest = %+v", d)
		}
		got = append(got, d[0].Workers[0])
	}
	want := []topology.WorkerID{1, 2, 3, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestFieldsRoutingConsistency(t *testing.T) {
	r := NewRouter([]topology.Route{route(topology.Fields, []topology.WorkerID{1, 2, 3, 4}, 0)})
	first := make(map[string]topology.WorkerID)
	for i := 0; i < 100; i++ {
		for _, key := range []string{"apple", "banana", "cherry", "date"} {
			d := r.RouteInto(nil, tuple.New(tuple.String(key), tuple.Int(int64(i))))
			w := d[0].Workers[0]
			if prev, ok := first[key]; ok && prev != w {
				t.Fatalf("key %q routed to both %d and %d", key, prev, w)
			}
			first[key] = w
		}
	}
}

func TestGlobalRouting(t *testing.T) {
	r := NewRouter([]topology.Route{route(topology.Global, []topology.WorkerID{7, 8, 9})})
	for i := 0; i < 5; i++ {
		d := r.RouteInto(nil, tuple.New(tuple.Int(int64(i))))
		if d[0].Workers[0] != 7 {
			t.Fatalf("global routed to %d", d[0].Workers[0])
		}
	}
}

func TestAllRoutingBroadcast(t *testing.T) {
	hops := []topology.WorkerID{1, 2, 3}
	r := NewRouter([]topology.Route{route(topology.All, hops)})
	d := r.RouteInto(nil, tuple.New(tuple.Int(1)))
	if !d[0].Broadcast || !reflect.DeepEqual(d[0].Workers, hops) {
		t.Fatalf("dest = %+v", d[0])
	}
}

func TestSDNBalancedRouting(t *testing.T) {
	r := NewRouter([]topology.Route{route(topology.SDNBalanced, []topology.WorkerID{1, 2})})
	d := r.RouteInto(nil, tuple.New(tuple.Int(1)))
	if !d[0].SDNBalanced || d[0].Broadcast {
		t.Fatalf("dest = %+v", d[0])
	}
}

func TestDirectRouting(t *testing.T) {
	r := NewRouter([]topology.Route{route(topology.Direct, []topology.WorkerID{5, 6})})
	d := r.RouteInto(nil, tuple.New(tuple.Int(6), tuple.Int(99)))
	if len(d) != 1 || d[0].Workers[0] != 6 {
		t.Fatalf("dest = %+v", d)
	}
	// Unknown direct target: dropped.
	if d := r.RouteInto(nil, tuple.New(tuple.Int(42))); len(d) != 0 {
		t.Fatalf("unknown direct target should drop, got %+v", d)
	}
}

func TestStreamFiltering(t *testing.T) {
	edgeA := topology.Route{
		Edge:     topology.EdgeSpec{From: "a", To: "b", Policy: topology.Shuffle, Stream: 1},
		NextHops: []topology.WorkerID{1},
	}
	edgeB := topology.Route{
		Edge:     topology.EdgeSpec{From: "a", To: "c", Policy: topology.Shuffle, Stream: 2},
		NextHops: []topology.WorkerID{2},
	}
	r := NewRouter([]topology.Route{edgeA, edgeB})
	d := r.RouteInto(nil, tuple.OnStream(1, tuple.Int(0)))
	if len(d) != 1 || d[0].Workers[0] != 1 {
		t.Fatalf("stream 1 dest = %+v", d)
	}
	d = r.RouteInto(nil, tuple.OnStream(2, tuple.Int(0)))
	if len(d) != 1 || d[0].Workers[0] != 2 {
		t.Fatalf("stream 2 dest = %+v", d)
	}
	if d = r.RouteInto(nil, tuple.OnStream(9, tuple.Int(0))); len(d) != 0 {
		t.Fatalf("unsubscribed stream dest = %+v", d)
	}
}

func TestRouterUpdateSwapsTable(t *testing.T) {
	r := NewRouter([]topology.Route{route(topology.Shuffle, []topology.WorkerID{1})})
	r.Update([]topology.Route{route(topology.Shuffle, []topology.WorkerID{2, 3})})
	seen := map[topology.WorkerID]bool{}
	for i := 0; i < 4; i++ {
		seen[r.RouteInto(nil, tuple.New())[0].Workers[0]] = true
	}
	if seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("seen = %v", seen)
	}
	got := r.Routes()
	if len(got) != 1 || !reflect.DeepEqual(got[0].NextHops, []topology.WorkerID{2, 3}) {
		t.Fatalf("Routes() = %+v", got)
	}
}

func TestEmptyNextHopsSkipped(t *testing.T) {
	r := NewRouter([]topology.Route{route(topology.Shuffle, nil)})
	if d := r.RouteInto(nil, tuple.New()); len(d) != 0 {
		t.Fatalf("empty hops dest = %+v", d)
	}
}

// TestRouteIntoAllocs guards the data path's routing: with a reused
// destination slice, RouteInto allocates nothing for the policies the
// worker hot path uses.
func TestRouteIntoAllocs(t *testing.T) {
	hops := []topology.WorkerID{1, 2, 3, 4}
	in := tuple.New(tuple.String("key"), tuple.Int(7))
	for _, p := range []topology.RoutingPolicy{topology.Shuffle, topology.Fields, topology.Global, topology.All} {
		r := NewRouter([]topology.Route{route(p, hops, 0)})
		dst := make([]Destination, 0, 4)
		if n := testing.AllocsPerRun(1000, func() {
			dst = r.RouteInto(dst[:0], in)
		}); n != 0 {
			t.Errorf("policy %v: RouteInto allocates %.1f per call, want 0", p, n)
		}
		if len(dst) != 1 {
			t.Errorf("policy %v: %d destinations, want 1", p, len(dst))
		}
	}
}

// TestRouteIntoAppends checks RouteInto extends dst rather than replacing
// it, which the worker's nested sends rely on.
func TestRouteIntoAppends(t *testing.T) {
	r := NewRouter([]topology.Route{route(topology.Global, []topology.WorkerID{5})})
	dst := r.RouteInto([]Destination{{Workers: []topology.WorkerID{9}}}, tuple.New(tuple.Int(1)))
	if len(dst) != 2 || dst[0].Workers[0] != 9 || dst[1].Workers[0] != 5 {
		t.Fatalf("RouteInto = %+v, want the prefix kept and worker 5 appended", dst)
	}
}
