package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// pct is one reported percentile: the value, how many samples it was
// computed from, and whether enough samples lie beyond it to report it.
type pct struct {
	Value float64
	N     int
	OK    bool
}

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule. It reports the value only when at least ten samples lie strictly
// beyond that rank, so a p90 needs 100 samples and a median 20; with fewer
// the result has OK unset and callers omit it.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	p := pct{N: n}
	if n == 0 {
		return p
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	p.Value = s[rank]
	p.OK = n-1-rank >= 10
	return p
}

// okValue is p's value, or 0 when too few samples lie beyond it.
func okValue(p pct) float64 {
	if !p.OK {
		return 0
	}
	return p.Value
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for an empty slice. Used for per-round figures, where
// there are too few samples for the percentile rule but a median still
// resists one slow round.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSnap is the part of the Go runtime's own accounting the benchmark
// reports: cumulative heap allocation, GC cycles and GC CPU time.
type memSnap struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readMem() memSnap {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	return memSnap{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64()}
}

func (m memSnap) add(o memSnap) memSnap {
	return memSnap{m.allocBytes + o.allocBytes, m.gcCycles + o.gcCycles, m.gcCPU + o.gcCPU}
}

// sub returns the growth from earlier to m.
func (m memSnap) sub(earlier memSnap) memSnap {
	return memSnap{m.allocBytes - earlier.allocBytes, m.gcCycles - earlier.gcCycles, m.gcCPU - earlier.gcCPU}
}
