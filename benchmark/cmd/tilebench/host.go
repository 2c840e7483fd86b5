package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB, or
// 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostUse is a snapshot of the process's cumulative resource counters.
type hostUse struct {
	cpuS    float64
	allocB  uint64
	mallocs uint64
	gcs     uint32
}

func readHostUse() hostUse {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostUse{cpuS: cpuSeconds(), allocB: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC}
}

func (a hostUse) sub(b hostUse) hostUse {
	return hostUse{cpuS: a.cpuS - b.cpuS, allocB: a.allocB - b.allocB, mallocs: a.mallocs - b.mallocs, gcs: a.gcs - b.gcs}
}
