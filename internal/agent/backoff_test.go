package agent

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"typhoon/internal/coordinator"
	"typhoon/internal/paths"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/worker"
	"typhoon/internal/workload"
)

// TestAgentCrashRestartBackoff drives a worker through a crash loop and
// asserts consecutive local restarts space out exponentially: the gap
// between crash N and crash N+1 must be at least RestartDelay<<(N-1), so a
// crash-looping worker's heartbeats go stale and the manager can
// reschedule it.
func TestAgentCrashRestartBackoff(t *testing.T) {
	const restartDelay = 60 * time.Millisecond

	store := coordinator.NewStore()
	sw := switchfabric.New("h1", 1, switchfabric.Options{})
	sw.Start()
	t.Cleanup(sw.Stop)
	env := worker.NewSharedEnv()
	env.Set(workload.EnvStats, workload.NewStats(time.Second))
	env.Set(workload.EnvConfig, workload.NewConfig())

	var mu sync.Mutex
	var crashes []time.Time
	a, err := New(Options{
		Host: "h1", Mode: ModeSDN, KV: store, Switch: sw, Env: env,
		HeartbeatInterval: 50 * time.Millisecond,
		RestartDelay:      restartDelay,
		OnWorkerCrash: func(topo string, id topology.WorkerID, err error) {
			mu.Lock()
			crashes = append(crashes, time.Now())
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)

	l, p := testTopology(t)
	store.Put(paths.Logical(l.Name), l.Encode())
	store.Put(paths.Physical(l.Name), p.Encode())
	waitFor(t, 5*time.Second, "workers running", func() bool {
		return len(a.RunningWorkers("agenttest")) == 2
	})

	// Fail the sink worker as soon as each incarnation comes up, four
	// crashes in a row (each incarnation is a distinct *worker.Worker).
	const sink = topology.WorkerID(2)
	var prev *worker.Worker
	for i := 0; i < 4; i++ {
		var w *worker.Worker
		waitFor(t, 5*time.Second, fmt.Sprintf("incarnation %d", i+1), func() bool {
			w = a.Worker("agenttest", sink)
			return w != nil && w != prev
		})
		prev = w
		w.Fail(fmt.Errorf("test crash %d", i+1))
		waitFor(t, 5*time.Second, fmt.Sprintf("crash %d observed", i+1), func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(crashes) >= i+1
		})
	}

	mu.Lock()
	defer mu.Unlock()
	if len(crashes) < 4 {
		t.Fatalf("crashes = %d, want 4", len(crashes))
	}
	// After crash N the restart waits RestartDelay<<(N-1) (quick crashes
	// never reset the streak), so that much time must separate the crashes.
	for i := 1; i < 4; i++ {
		gap := crashes[i].Sub(crashes[i-1])
		want := restartDelay << (i - 1)
		if gap < want {
			t.Fatalf("crash gap %d = %v, want at least %v (exponential backoff)", i, gap, want)
		}
	}
}

// TestAgentCrashBackoffIgnoresTopologyEvents fires physical-topology events
// while a crashed worker waits out its restart backoff and asserts none of
// them relaunches it: only the end of the backoff may. The agent's own
// publishPort CAS is such an event, so without the guard every restart of
// a sibling worker would cut a crash-looping worker's backoff short.
func TestAgentCrashBackoffIgnoresTopologyEvents(t *testing.T) {
	crashed := make(chan struct{}, 1)
	a, store, _ := newSDNAgent(t, func(o *Options) {
		o.RestartDelay = time.Hour // the backoff never ends on its own here
		o.OnWorkerCrash = func(string, topology.WorkerID, error) { crashed <- struct{}{} }
	})
	l, p := testTopology(t)
	store.Put(paths.Logical(l.Name), l.Encode())
	store.Put(paths.Physical(l.Name), p.Encode())
	waitFor(t, 5*time.Second, "workers running", func() bool {
		return len(a.RunningWorkers("agenttest")) == 2
	})
	const sink = topology.WorkerID(2)
	first := a.Worker("agenttest", sink)
	first.Fail(fmt.Errorf("test crash"))
	select {
	case <-crashed:
	case <-time.After(5 * time.Second):
		t.Fatal("crash not observed")
	}

	// A physical-topology event through the watch path, then a direct,
	// synchronous re-sync.
	raw, _, err := store.Get(paths.Physical(l.Name))
	if err != nil {
		t.Fatal(err)
	}
	store.Put(paths.Physical(l.Name), raw)
	a.syncTopology(l.Name)
	time.Sleep(100 * time.Millisecond) // let the watch event land too
	if w := a.Worker("agenttest", sink); w != first {
		t.Fatal("crashed worker relaunched during its restart backoff")
	}
	if got := a.RunningWorkers("agenttest"); len(got) != 1 {
		t.Fatalf("running workers = %v, want only the source", got)
	}

	// Once the backoff has run out, a re-sync relaunches it.
	a.mu.Lock()
	a.workers["agenttest"][sink].restartAt = time.Now()
	a.mu.Unlock()
	a.syncTopology(l.Name)
	if w := a.Worker("agenttest", sink); w == nil || w == first {
		t.Fatal("crashed worker not relaunched after its backoff")
	}
}
