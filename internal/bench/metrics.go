package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"abndp/internal/apps"
	"abndp/internal/ckpt"
)

// Metrics records the harness's own performance — wall-clock per
// experiment and per phase — so the perf trajectory of the simulator is
// tracked release over release (BENCH_<date>.json files at the repo root,
// written by `make bench` / `abndpbench -benchjson`).
type Metrics struct {
	Date        string  `json:"date,omitempty"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	Workers     int     `json:"workers"`
	Quick       bool    `json:"quick"`
	Runs        int64   `json:"runs"`         // simulations executed (cache misses)
	PlanSeconds float64 `json:"plan_seconds"` // plan-pass replay time

	// SimSeconds is all simulation wall-clock: the pool phase (simPool,
	// elapsed time of the parallel warm-up) plus every run executed inline
	// during render or serving (simInline). The split fixes the historical
	// bug where a single-worker sweep skipped the pool phase and reported
	// sim_seconds 0 even though every run executed inline.
	SimSeconds   float64            `json:"sim_seconds"`
	Experiments  []ExperimentTiming `json:"experiments"` // per-experiment render wall-clock
	TotalSeconds float64            `json:"total_seconds"`

	// Engine speed: total engine events executed across every simulated run
	// (each run counted once, however many experiments referenced it) and
	// the aggregate throughput events_total / sim_seconds.
	EventsTotal  int64   `json:"events_total"`
	EventsPerSec float64 `json:"events_per_sec"`

	// Engine names the simulation path: "serial" (the default, no store)
	// or "checkpoint" (store attached).
	Engine string `json:"engine"`

	// Checkpoint carries the store's counters when one is attached; the
	// input-cache counters track workload graph reuse (both are part of the
	// checkpoint/delta re-simulation path and 0/absent without it).
	Checkpoint       *ckpt.Stats `json:"checkpoint,omitempty"`
	InputCacheHits   int64       `json:"input_cache_hits,omitempty"`
	InputCacheMisses int64       `json:"input_cache_misses,omitempty"`

	// WarmSweep is the cold-vs-warm re-simulation experiment's outcome
	// (RunWarmSweep), present only when that sweep ran.
	WarmSweep *WarmSweepMetrics `json:"warm_sweep,omitempty"`

	// Failures lists runs that panicked or hung (guard.go). A non-empty
	// list means the corresponding table rows hold placeholder values.
	Failures []RunFailure `json:"failures,omitempty"`

	// Invariant-audit outcome, populated in check mode (Runner.SetCheck):
	// how many runs were audited, how many invariant evaluations they
	// performed, and every recorded breach. A non-empty CheckViolations
	// means the sweep's numbers are suspect.
	CheckedRuns     int64            `json:"checked_runs,omitempty"`
	CheckEvals      int64            `json:"check_evals,omitempty"`
	CheckViolations []CheckViolation `json:"check_violations,omitempty"`

	// Process-wide resource footprint, snapshotted when the metrics are
	// collected: OS peak resident set (0 on platforms without getrusage)
	// and the Go runtime's cumulative allocation counters.
	PeakRSSBytes    int64  `json:"peak_rss_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
	NumGC           uint32 `json:"num_gc"`

	// Internal accumulators (see SimSeconds). simPool is the elapsed
	// wall-clock of the parallel pool phases; simInline sums the wall-clock
	// of runs executed outside the pool. Guarded by Runner.statsMu.
	simPool   float64
	simInline float64
}

// ExperimentTiming is one experiment's render wall-clock plus the engine
// cost of the simulations it referenced. Under a worker pool the runs are
// pre-executed, so Seconds is mostly formatting time while SimSeconds sums
// the (possibly shared) runs' own wall-clock; with a single worker the
// inline runs are inside Seconds too.
//
// The engine fields carry omitempty: table-only experiments (tab1, tab2)
// reference no timing simulations, and emitting sim_seconds/events_per_sec
// as literal zeros made trajectory consumers (cmd/abndpperf) read them as
// collapses to 0 events/sec rather than "no engine work to measure".
type ExperimentTiming struct {
	Name         string  `json:"name"`
	Seconds      float64 `json:"seconds"`
	SimSeconds   float64 `json:"sim_seconds,omitempty"`
	EventsTotal  int64   `json:"events_total,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

func (m *Metrics) addRun() { atomic.AddInt64(&m.Runs, 1) }

// engineName names the Runner's simulation path for the metrics JSON.
func (r *Runner) engineName() string {
	if r.store == nil {
		return "serial"
	}
	return "checkpoint"
}

// Metrics snapshots the harness timings collected so far.
func (r *Runner) Metrics() Metrics {
	m := r.metrics
	m.GoMaxProcs = runtime.GOMAXPROCS(0)
	m.Workers = r.Workers()
	m.Quick = r.quick
	m.Date = time.Now().Format("2006-01-02T15:04:05Z07:00")
	m.PeakRSSBytes = peakRSSBytes()
	m.Failures = r.Failures()
	m.CheckedRuns, m.CheckEvals = r.CheckCounts()
	m.CheckViolations = r.CheckViolations()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.TotalAllocBytes, m.Mallocs, m.NumGC = ms.TotalAlloc, ms.Mallocs, ms.NumGC

	r.statsMu.Lock()
	m.SimSeconds = m.simPool + m.simInline
	for _, st := range r.runStats {
		m.EventsTotal += st.events
	}
	r.statsMu.Unlock()
	if m.SimSeconds > 0 {
		m.EventsPerSec = float64(m.EventsTotal) / m.SimSeconds
	}
	m.Engine = r.engineName()
	if r.store != nil {
		st := r.store.Stats()
		m.Checkpoint = &st
	}
	m.InputCacheHits, m.InputCacheMisses = apps.InputCacheStats()

	for _, e := range m.Experiments {
		m.TotalSeconds += e.Seconds
	}
	// Inline sim time is already inside the experiment render times; only
	// the plan pass and the pool phase are additional wall-clock.
	m.TotalSeconds += m.PlanSeconds + m.simPool
	return m
}

// WriteJSON writes the metrics as an indented JSON file.
func (m Metrics) WriteJSON(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
