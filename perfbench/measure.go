package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
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

// liveHeapMB forces a collection and returns the heap still in use, in MB.
// Callers keep what they want counted reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rtSample is a snapshot of the Go runtime counters a phase is judged by.
type rtSample struct {
	allocBytes      float64
	gcCPU, totalCPU float64
	wall            time.Time
	processCPU      time.Duration
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	value := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: value(0), gcCPU: value(1), totalCPU: value(2),
		wall: time.Now(), processCPU: cpuTime()}
}

// phase is the runtime delta over a measured phase.
type phase struct {
	wall       time.Duration
	processCPU time.Duration
	allocBytes float64
	// gcFraction is GC CPU over all CPU the runtime accounted in the phase.
	gcFraction float64
}

func since(start rtSample) phase {
	end := sampleRuntime()
	p := phase{
		wall:       end.wall.Sub(start.wall),
		processCPU: end.processCPU - start.processCPU,
		allocBytes: end.allocBytes - start.allocBytes,
	}
	if total := end.totalCPU - start.totalCPU; total > 0 {
		p.gcFraction = (end.gcCPU - start.gcCPU) / total
	}
	return p
}

// percentile returns the nearest-rank p-quantile of sorted (0 < p <= 1).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the median of vs (0 for none); vs is reordered.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if len(vs)%2 == 1 {
		return vs[len(vs)/2]
	}
	return (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp divides a duration by a count, in the unit scale gives (e.g.
// time.Microsecond); zero counts give zero.
func perOp(d time.Duration, n int64, scale time.Duration) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d) / float64(n) / float64(scale)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
