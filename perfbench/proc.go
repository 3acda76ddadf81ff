package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS tracks the process's peak resident memory over the measured
// part of a run. Set-up and output checks are excluded: before measuring,
// and after each check, it returns freed memory to the OS and resets the
// kernel's high-water mark (VmHWM) through /proc/self/clear_refs.
type peakRSS struct{ maxMiB float64 }

// resume starts (or restarts) measuring from the current footprint.
func (p *peakRSS) resume() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// pause folds the high-water mark since the last resume into the peak.
func (p *peakRSS) pause() error {
	v, err := readHWM()
	if err != nil {
		return err
	}
	p.maxMiB = max(p.maxMiB, v)
	return nil
}

// readHWM returns VmHWM from /proc/self/status in MiB.
func readHWM() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{v(0), v(1), v(2), v(3)}
}

// setRuntime reports the runtime counters accumulated between a and b
// over jobs jobs.
func setRuntime(r *report, a, b rtSample, jobs int) {
	n := float64(max(jobs, 1))
	r.set("runtime.alloc_mib_per_job", (b.allocBytes-a.allocBytes)/(1<<20)/n)
	r.set("runtime.gc_cycles_per_job", (b.gcCycles-a.gcCycles)/n)
	share := 0.0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		share = (b.gcCPU - a.gcCPU) / cpu
	}
	r.set("runtime.gc_cpu_share", share)
}
