// Package worker implements the Typhoon worker of Fig 4, structured as the
// paper's three layers:
//
//   - the application computation layer (user Components registered by
//     name, so logic can be fetched and hot-swapped like application
//     binaries),
//   - the framework layer (routing policies, control-tuple handling,
//     de/serialization, guaranteed-processing bookkeeping), and
//   - the I/O layer (packetization, batching, input rate control and the
//     worker statistics reporter), provided by SDNTransport for Typhoon or
//     a pluggable baseline transport.
package worker

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"typhoon/internal/tuple"
)

// Emitter is the surface computation logic uses to produce tuples. It is
// implemented by the worker framework layer.
//
// Ownership: the values slice belongs to the caller and is only borrowed for
// the call. The worker copies it into a reusable scratch before routing, so
// a tuple handed to Transport.Send may carry values that the next emission
// overwrites; anything that keeps values past the call (pending ack entries,
// in-process transports) copies them first.
type Emitter interface {
	// Emit sends values on the default stream.
	Emit(values ...tuple.Value)
	// EmitOn sends values on a specific stream.
	EmitOn(stream tuple.StreamID, values ...tuple.Value)
}

// Context gives computation logic access to its identity and emission.
type Context struct {
	// w is set when a worker built the context: emission is then a direct
	// call, so the caller's variadic values never escape to the heap.
	w      *Worker
	em     Emitter
	id     uint32
	node   string
	index  int
	shared *SharedEnv
}

// NewContext builds a Context around an Emitter. Workers build their own
// contexts; this constructor exists for tests and for embedding components
// in other runtimes.
func NewContext(em Emitter, id uint32, node string, index int, env *SharedEnv) *Context {
	return &Context{em: em, id: id, node: node, index: index, shared: env}
}

// Emit sends values on the default stream.
func (c *Context) Emit(values ...tuple.Value) { c.EmitOn(tuple.DefaultStream, values...) }

// EmitOn sends values on the given stream.
func (c *Context) EmitOn(s tuple.StreamID, values ...tuple.Value) {
	if c.w != nil {
		c.w.emit(s, values)
		return
	}
	// Other emitters may keep what they are given; a copy keeps the
	// caller's slice from escaping on the worker path above.
	c.em.EmitOn(s, slices.Clone(values)...)
}

// WorkerID returns this worker's physical ID.
func (c *Context) WorkerID() uint32 { return c.id }

// Node returns the logical node name.
func (c *Context) Node() string { return c.node }

// Index returns the instance index within the node.
func (c *Context) Index() int { return c.index }

// Env returns the shared environment (external services such as the
// emulated Kafka and KV store), which may be nil.
func (c *Context) Env() *SharedEnv { return c.shared }

// queueReporter is implemented by emitters that can report input backlog.
type queueReporter interface{ InQueueLen() int }

// QueueLen reports the worker's current input backlog (tuples and frames
// queued toward it); components use it to model load-dependent behaviour
// such as memory exhaustion under overload (Fig 11).
func (c *Context) QueueLen() int {
	if q, ok := c.em.(queueReporter); ok {
		return q.InQueueLen()
	}
	return 0
}

// SharedEnv carries references to external services that computation logic
// may need (the Yahoo benchmark's Kafka source and Redis store). Values are
// arbitrary and looked up by well-known keys.
type SharedEnv struct {
	mu sync.RWMutex
	m  map[string]any
}

// NewSharedEnv builds an empty environment.
func NewSharedEnv() *SharedEnv { return &SharedEnv{m: make(map[string]any)} }

// Set stores a service under a key.
func (e *SharedEnv) Set(key string, v any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.m[key] = v
}

// Get fetches a service by key, or nil.
func (e *SharedEnv) Get(key string) any {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.m[key]
}

// Component is the lifecycle shared by all computation logic.
type Component interface {
	// Open is called once before any tuples flow.
	Open(ctx *Context) error
	// Close is called when the worker shuts down.
	Close(ctx *Context) error
}

// Bolt consumes tuples. Signal tuples (tuple.SignalStream) are delivered to
// Execute like data so stateful bolts can implement the flush pattern of
// Listing 2.
type Bolt interface {
	Component
	Execute(ctx *Context, in tuple.Tuple) error
}

// Spout generates tuples. Next should emit zero or more tuples and report
// whether it did any work; idle spouts are polled with backoff.
type Spout interface {
	Component
	Next(ctx *Context) (bool, error)
}

// Factory builds a fresh Component instance for a worker.
type Factory func() Component

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// RegisterLogic installs a computation-logic factory under a name. The name
// is what logical topologies reference; re-registering a name replaces the
// factory (how new application binaries are "fetched" in this emulation).
func RegisterLogic(name string, f Factory) {
	if name == "" || f == nil {
		panic("worker: RegisterLogic with empty name or nil factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = f
}

// NewLogic instantiates registered logic.
func NewLogic(name string) (Component, error) {
	regMu.RLock()
	f := registry[name]
	regMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("worker: unknown logic %q", name)
	}
	return f(), nil
}

// RegisteredLogic lists registered logic names, sorted.
func RegisteredLogic() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
