package worker

import (
	"sync"

	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// Router implements the framework layer's routing policies (Listing 1).
// Its state — the next-hop sets and policy descriptors per out-edge — is
// exactly what ROUTING control tuples replace at runtime, so the whole
// table swaps atomically under a mutex the data path shares.
type Router struct {
	mu     sync.Mutex
	routes []*routeState
}

type routeState struct {
	edge     topology.EdgeSpec
	nextHops []topology.WorkerID
	counter  uint64 // round-robin cursor (policy-specific state)
}

// Destination is one routing decision for a tuple.
type Destination struct {
	// Workers are the target worker IDs.
	Workers []topology.WorkerID
	// Broadcast requests network-level replication (the destination
	// address becomes the broadcast address and the switch fans out).
	Broadcast bool
	// SDNBalanced requests switch-level destination selection: the worker
	// stamps the broadcast address and a select group rewrites it.
	SDNBalanced bool
}

// NewRouter builds a router from an initial routing table.
func NewRouter(routes []topology.Route) *Router {
	r := &Router{}
	r.Update(routes)
	return r
}

// Update atomically replaces the routing table (ROUTING control tuple).
// Round-robin counters reset, which is harmless for shuffle semantics.
func (r *Router) Update(routes []topology.Route) {
	states := make([]*routeState, 0, len(routes))
	for _, rt := range routes {
		states = append(states, &routeState{
			edge:     rt.Edge,
			nextHops: append([]topology.WorkerID(nil), rt.NextHops...),
		})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes = states
}

// Routes returns a copy of the current routing table.
func (r *Router) Routes() []topology.Route {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]topology.Route, 0, len(r.routes))
	for _, s := range r.routes {
		out = append(out, topology.Route{
			Edge:     s.edge,
			NextHops: append([]topology.WorkerID(nil), s.nextHops...),
		})
	}
	return out
}

// RouteInto computes the destinations of a tuple — one Destination per
// out-edge subscribed to the tuple's stream — appends them to dst and
// returns the extended slice. Every Destination's Workers aliases the
// routing table, so with a reused dst the data path routes without
// allocating; the views stay valid after a later Update, which swaps the
// table instead of mutating it.
func (r *Router) RouteInto(dst []Destination, t tuple.Tuple) []Destination {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := dst
	for _, s := range r.routes {
		if s.edge.Stream != t.Stream {
			continue
		}
		n := len(s.nextHops)
		if n == 0 {
			continue
		}
		switch s.edge.Policy {
		case topology.Shuffle:
			idx := s.counter % uint64(n)
			s.counter++
			out = append(out, Destination{Workers: s.nextHops[idx : idx+1]})
		case topology.Fields:
			// Two-level key routing (§3.5): hash → partition → owner via
			// rendezvous hashing, so rescaling the destination node moves
			// only the partitions whose owner changed and the controller's
			// updater app can compute exactly which state entries migrate.
			part := PartitionOf(tuple.HashFields(t, s.edge.HashFields))
			idx := OwnerIndex(part, n)
			out = append(out, Destination{Workers: s.nextHops[idx : idx+1]})
		case topology.Global:
			out = append(out, Destination{Workers: s.nextHops[:1]})
		case topology.All:
			out = append(out, Destination{Workers: s.nextHops, Broadcast: true})
		case topology.SDNBalanced:
			out = append(out, Destination{Workers: s.nextHops, SDNBalanced: true})
		case topology.Direct:
			want := topology.WorkerID(t.Field(0).AsInt())
			for i, h := range s.nextHops {
				if h == want {
					out = append(out, Destination{Workers: s.nextHops[i : i+1]})
					break
				}
			}
		}
	}
	return out
}
