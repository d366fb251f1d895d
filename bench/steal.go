package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
)

// cpuTimes is the first line of /proc/stat: the machine's CPU time since
// boot, all of it and the part the hypervisor gave to another guest.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes returns zeros where /proc/stat cannot be read; every steal
// share is then 0 and every block counts as quiet.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var c cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is already
	// inside user.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// stealShare is the stolen share of the CPU time between two readings.
func stealShare(from, to cpuTimes) float64 {
	return ratio(float64(to.steal-from.steal), float64(to.total-from.total))
}

// quietOnes returns the indexes of the measurements taken on a quiet
// machine, given each one's steal share: all at or below quietSteal, and at
// least the quarter with the least steal, so a run on a machine that was
// never quiet still reports its least disturbed part.
func quietOnes(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := (len(idx) + 3) / 4
	for n < len(idx) && steal[idx[n]] <= quietSteal {
		n++
	}
	return idx[:n]
}
