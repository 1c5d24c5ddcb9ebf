package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/tensor"
)

// fingerprint describes the host a run measured on. Runs are never
// dropped or reweighted by it; it is printed so a reader can tell two
// hosts, or a noisy neighbour, apart.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s int8_kernel=%v",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), tensor.HasInt8Kernel())
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// readSteal reads the aggregate CPU times; ok is false where /proc/stat
// is unavailable, and steal is then reported as 0.
func readSteal() (cpuTimes, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	defer f.Close()
	t, err := parseProcStat(f)
	return t, err == nil
}

// processSnapshot is the process-wide resource state at one instant.
type processSnapshot struct {
	wall     time.Time
	cpu      time.Duration // user + system CPU time (getrusage)
	allocB   uint64        // cumulative heap bytes allocated
	gcCycles uint64
	steal    cpuTimes
	stealOK  bool
}

var runtimeMetricNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func snapshotProcess() processSnapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	rm := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		rm[i].Name = n
	}
	metrics.Read(rm)
	s := processSnapshot{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:   rm[0].Value.Uint64(),
		gcCycles: rm[1].Value.Uint64(),
	}
	s.steal, s.stealOK = readSteal()
	return s
}

// processDelta is the resource use between two snapshots.
type processDelta struct {
	wall     time.Duration
	cpu      time.Duration
	allocB   uint64
	gcCycles uint64
	stealPct float64
}

func (s processSnapshot) to(e processSnapshot) processDelta {
	d := processDelta{
		wall:     e.wall.Sub(s.wall),
		cpu:      e.cpu - s.cpu,
		allocB:   e.allocB - s.allocB,
		gcCycles: e.gcCycles - s.gcCycles,
	}
	if s.stealOK && e.stealOK {
		d.stealPct = stealPct(s.steal, e.steal)
	}
	return d
}
