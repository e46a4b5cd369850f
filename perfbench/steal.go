package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTicks is the guest's CPU time in clock ticks, summed over its CPUs,
// from the first line of /proc/stat: busy is every state but idle, iowait
// and steal; steal is time a runnable vCPU waited while the hypervisor ran
// someone else.
type cpuTicks struct{ busy, steal uint64 }

// readCPUTicks returns the guest's CPU ticks, or false where /proc/stat is
// missing or has no steal column.
func readCPUTicks() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return cpuTicks{}, false
		}
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, true
}

// stolenShare is the share of the CPU time the guest's vCPUs wanted between
// a and b that the hypervisor gave to other guests; 0 when unknown.
func stolenShare(a, b cpuTicks, okA, okB bool) float64 {
	if !okA || !okB || b.steal < a.steal || b.busy < a.busy {
		return 0
	}
	steal, wanted := float64(b.steal-a.steal), float64(b.busy-a.busy+b.steal-a.steal)
	if wanted == 0 {
		return 0
	}
	return steal / wanted
}

// maxStolenShare caps the steal correction of a rate: a window in which the
// guest got almost no CPU says little about the program's rate.
const maxStolenShare = 0.5
