package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestCheckerFlagsLostDuplicatedReordered(t *testing.T) {
	cases := []struct {
		name string
		seqs []int64
		want violations
	}{
		{"clean", []int64{0, 1, 2, 3, 4}, violations{}},
		{"lost", []int64{0, 1, 3, 4}, violations{Lost: 1}},
		{"duplicated", []int64{0, 1, 1, 2, 3, 4}, violations{Dup: 1}},
		{"reordered", []int64{0, 2, 1, 3, 4}, violations{Reordered: 1}},
		{"all three", []int64{0, 3, 1, 1}, violations{Lost: 2, Dup: 1, Reordered: 1}},
	}
	for _, c := range cases {
		chk := newChecker(0)
		for _, s := range c.seqs {
			chk.observe(s, 0, 0, true)
		}
		if got := chk.verdict(5); got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestCheckerKeyedFIFOAndState(t *testing.T) {
	// Two keys interleaved; global order across keys may vary freely.
	chk := newChecker(2)
	chk.observe(1, 1, 1, true)
	chk.observe(0, 0, 1, true)
	chk.observe(3, 1, 2, true)
	chk.observe(2, 0, 2, true)
	if v := chk.verdict(4); v.total() != 0 {
		t.Fatalf("per-key FIFO stream flagged: %+v", v)
	}
	// Key 0 delivers its third record before its second, and a wrong count.
	chk = newChecker(1)
	chk.observe(0, 0, 1, true)
	chk.observe(2, 0, 3, true)
	chk.observe(1, 0, 2, false)
	if v := chk.verdict(3); v != (violations{Reordered: 1, Bad: 1}) {
		t.Fatalf("got %+v, want one reordered and one wrong-state record", v)
	}
}

func TestPercentileKnownSample(t *testing.T) {
	sample := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := percentile(sample, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
	}
	// Undelivered records are infinitely late: with 2 of 10 missing the
	// p90 and p99 are infinite while the median is not.
	inf := math.Inf(1)
	withLost := []float64{1, 2, 3, 4, 5, 6, 7, 8, inf, inf}
	if got := percentile(withLost, 0.5); got != 5 {
		t.Errorf("median with undelivered = %v, want 5", got)
	}
	if got := percentile(withLost, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 2 of 10 undelivered = %v, want +Inf", got)
	}
	if got := summarize([]stageResult{{lat: withLost}}); got.undelivered != 2 || !math.IsInf(got.poolP99, 1) {
		t.Errorf("summarize: %+v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestStealAccounting(t *testing.T) {
	a, b := cpuTicks{busy: 100, steal: 10}, cpuTicks{busy: 160, steal: 30}
	if got := stolenShare(a, b, true, true); got != 0.25 {
		t.Errorf("20 of 80 wanted ticks stolen: share %v, want 0.25", got)
	}
	if got := stolenShare(a, b, true, false); got != 0 {
		t.Errorf("unreadable ticks: share %v, want 0", got)
	}
	// The calm half is chosen by stolen share alone; ties keep the earlier
	// window, and an odd count rounds up.
	got := calmWindows([]float64{0.3, 0, 0.1, 0, 0.2})
	if want := []int{1, 3, 2}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("calm windows %v, want %v", got, want)
	}
	if _, ok := readCPUTicks(); !ok {
		t.Log("no steal column in /proc/stat here; rates go uncorrected")
	}
}

// TestSmokeEveryWorkload runs each workload briefly in both modes and checks
// that the result line carries every metric BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts clusters")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var out, errb bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "7", "-seconds", "2",
				"-trace", []string{"0", "1"}[trace], "-out", t.TempDir()}
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", w.name, trace, code, out.String(), errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: %+v", w.name, trace, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
