package agent

import (
	"testing"
	"time"

	"typhoon/internal/coordinator"
	"typhoon/internal/paths"
	"typhoon/internal/storm"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/worker"
	"typhoon/internal/workload"
)

func testTopology(t *testing.T) (*topology.Logical, *topology.Physical) {
	t.Helper()
	b := topology.NewBuilder("agenttest", 1)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("src")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := &topology.Physical{
		App: 1, Name: "agenttest", NextWorker: 3,
		Workers: []topology.Assignment{
			{Worker: 1, Node: "src", Index: 0, Host: "h1"},
			{Worker: 2, Node: "sink", Index: 0, Host: "h1"},
		},
	}
	return l, p
}

// newSDNAgent starts an SDN-mode agent on host h1; tweaks adjust its
// options before it is built.
func newSDNAgent(t *testing.T, tweaks ...func(*Options)) (*Agent, *coordinator.Store, *switchfabric.Switch) {
	t.Helper()
	store := coordinator.NewStore()
	sw := switchfabric.New("h1", 1, switchfabric.Options{})
	sw.Start()
	t.Cleanup(sw.Stop)
	env := worker.NewSharedEnv()
	env.Set(workload.EnvStats, workload.NewStats(time.Second))
	env.Set(workload.EnvConfig, workload.NewConfig())
	opts := Options{
		Host: "h1", Mode: ModeSDN, KV: store, Switch: sw, Env: env,
		HeartbeatInterval: 50 * time.Millisecond,
		DrainDelay:        50 * time.Millisecond,
	}
	for _, tweak := range tweaks {
		tweak(&opts)
	}
	a, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Stop)
	return a, store, sw
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAgentLaunchesAssignedWorkers(t *testing.T) {
	a, store, _ := newSDNAgent(t)
	l, p := testTopology(t)
	store.Put(paths.Logical(l.Name), l.Encode())
	store.Put(paths.Physical(l.Name), p.Encode())
	waitFor(t, 5*time.Second, "workers running", func() bool {
		return len(a.RunningWorkers("agenttest")) == 2
	})
	// Ports published back to the coordinator via CAS.
	waitFor(t, 5*time.Second, "ports published", func() bool {
		raw, _, err := store.Get(paths.Physical("agenttest"))
		if err != nil {
			return false
		}
		cur, err := topology.DecodePhysical(raw)
		if err != nil {
			return false
		}
		for _, as := range cur.Workers {
			if as.Port == 0 {
				return false
			}
		}
		return true
	})
	// Heartbeats appear for both workers.
	waitFor(t, 5*time.Second, "heartbeats", func() bool {
		kids, err := store.Children(paths.HeartbeatPrefix("agenttest"))
		return err == nil && len(kids) == 2
	})
}

func TestAgentIgnoresOtherHosts(t *testing.T) {
	a, store, _ := newSDNAgent(t)
	l, p := testTopology(t)
	p.Workers[1].Host = "elsewhere"
	store.Put(paths.Logical(l.Name), l.Encode())
	store.Put(paths.Physical(l.Name), p.Encode())
	waitFor(t, 5*time.Second, "local worker running", func() bool {
		return len(a.RunningWorkers("agenttest")) == 1
	})
	time.Sleep(100 * time.Millisecond)
	if n := len(a.RunningWorkers("agenttest")); n != 1 {
		t.Fatalf("running = %d", n)
	}
}

func TestAgentStopsDeassignedWorkers(t *testing.T) {
	a, store, _ := newSDNAgent(t)
	l, p := testTopology(t)
	store.Put(paths.Logical(l.Name), l.Encode())
	store.Put(paths.Physical(l.Name), p.Encode())
	waitFor(t, 5*time.Second, "workers running", func() bool {
		return len(a.RunningWorkers("agenttest")) == 2
	})
	// Remove the sink from the assignment.
	raw, _, _ := store.Get(paths.Physical("agenttest"))
	cur, _ := topology.DecodePhysical(raw)
	cur.Workers = cur.Workers[:1]
	store.Put(paths.Physical("agenttest"), cur.Encode())
	waitFor(t, 5*time.Second, "worker drained", func() bool {
		return len(a.RunningWorkers("agenttest")) == 1
	})
}

func TestAgentKillsTopologyOnDelete(t *testing.T) {
	a, store, _ := newSDNAgent(t)
	l, p := testTopology(t)
	store.Put(paths.Logical(l.Name), l.Encode())
	store.Put(paths.Physical(l.Name), p.Encode())
	waitFor(t, 5*time.Second, "workers running", func() bool {
		return len(a.RunningWorkers("agenttest")) == 2
	})
	store.Delete(paths.Logical(l.Name))
	store.Delete(paths.Physical(l.Name))
	waitFor(t, 5*time.Second, "workers killed", func() bool {
		return len(a.RunningWorkers("agenttest")) == 0
	})
}

func TestAgentRegistersItself(t *testing.T) {
	_, store, _ := newSDNAgent(t)
	if _, _, err := store.Get(paths.Agent("h1")); err != nil {
		t.Fatal("agent not registered")
	}
}

func TestStormAgentActivation(t *testing.T) {
	store := coordinator.NewStore()
	env := worker.NewSharedEnv()
	stats := workload.NewStats(time.Second)
	cfg := workload.NewConfig()
	cfg.Set(workload.CfgSeqLimit, 100)
	env.Set(workload.EnvStats, stats)
	env.Set(workload.EnvConfig, cfg)
	a, err := New(Options{
		Host: "h1", Mode: ModeStorm, KV: store, StormNet: storm.NewNetwork(), Env: env,
		HeartbeatInterval: 50 * time.Millisecond,
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
	// Sources start throttled in baseline mode: no tuples yet.
	time.Sleep(150 * time.Millisecond)
	if n := stats.Counter("sink.total").Value(); n != 0 {
		t.Fatalf("source emitted %d before activation", n)
	}
	store.Put(paths.Activated("agenttest"), []byte("1"))
	waitFor(t, 5*time.Second, "tuples after activation", func() bool {
		return stats.Counter("sink.total").Value() == 100
	})
}

func TestAgentValidatesOptions(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	if _, err := New(Options{Host: "h", KV: coordinator.NewStore(), Mode: ModeSDN}); err == nil {
		t.Fatal("SDN mode without switch accepted")
	}
	if _, err := New(Options{Host: "h", KV: coordinator.NewStore(), Mode: ModeStorm}); err == nil {
		t.Fatal("storm mode without network accepted")
	}
}
