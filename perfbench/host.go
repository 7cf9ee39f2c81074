package main

import (
	"sort"
	"time"
)

// The VM this benchmark was built on changes speed by up to 1.7× over
// minutes, as other tenants come and go, while a run lasts 30 s. Time
// figures are therefore normalised by a reference kernel timed in the same
// run: fixed work of the kind the simulator does most (map updates, short
// sorts, small allocations). On this VM the kernel's median time over 10 s
// windows tracked sim-b's round time so closely that the normalised round
// time varied by 2.4% between windows against 13.9% raw (sim-o: 6.7%
// against 12.6%). The kernel shares no code with the program, so a change
// to the program moves the normalised figures exactly as it moves the raw
// ones.

// refNominalMs is the reference kernel's time on the nominal host; every
// normalised time is expressed as if the kernel took this long.
const refNominalMs = 2.5

var refSink int

// refKernel is the reference work.
func refKernel() {
	m := make(map[int]int, 1024)
	s := make([]int, 0, 64)
	x := 1
	for i := 0; i < 40_000; i++ {
		x = x*1103515245 + 12345
		k := (x >> 8) & 4095
		m[k] += i
		if len(s) < cap(s) {
			s = append(s, k)
		} else {
			sort.Ints(s)
			s = s[:0]
		}
	}
	refSink += len(m)
}

// hostSpeed collects reference kernel times, in ms.
type hostSpeed struct{ ms []float64 }

// sample times one run of the reference kernel.
func (h *hostSpeed) sample() {
	t := time.Now()
	refKernel()
	h.ms = append(h.ms, float64(time.Since(t).Microseconds())/1e3)
}

// slowdown is how much slower than nominal the host ran: the median
// kernel time over refNominalMs. Divide a time by it, or multiply a rate,
// to normalise.
func (h *hostSpeed) slowdown() float64 {
	if len(h.ms) == 0 {
		return 1
	}
	return median(h.ms) / refNominalMs
}
