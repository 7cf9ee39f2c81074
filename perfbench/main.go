// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator through its public entry points in one process and prints
// one JSON result line:
//
//	bash perfbench/run.sh --workload sim-o --seed 1 --seconds 20 --trace 0
//
// Workloads: sim-o and sim-b (closed-loop cold abndp.Run calls over the
// eight Figure-6 apps on designs O and B) and fleet-mix (two closed-loop
// clients against an in-process fleet coordinator with two serve
// backends). --trace 0 reports the end-to-end metrics, with time figures
// normalised to a nominal host speed (host.go); --trace 1 is a separate
// run that reports per-layer metrics from spans and a CPU profile, and
// writes its spans to .bench_build/spans-<workload>.jsonl.
// Every op's ResultHash is checked against golden.json; --regen-golden
// rewrites that table. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"abndp"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's op counts, metrics and human-readable lines.
type report struct {
	mu                sync.Mutex // fleet-mix callers count concurrently
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	info              []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) countAttempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail records a failed op; the first few errors are printed.
func (r *report) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// print writes the human-readable lines and, last, the JSON result.
func (r *report) print(w io.Writer) error {
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "FAILED:", e)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.attempted, r.failed)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: sim-o, sim-b or fleet-mix")
	seed := fs.Int64("seed", 1, "seed choosing the op sequence")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	regen := fs.String("regen-golden", "", "recompute the golden hash table and write it to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *regen != "" {
		return regenGolden(*regen, runtime.GOMAXPROCS(0))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	o := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	var rep *report
	switch o.workload {
	case "sim-o":
		rep, err = runSim(o, abndp.DesignO, g)
	case "sim-b":
		rep, err = runSim(o, abndp.DesignB, g)
	case "fleet-mix":
		rep, err = runFleet(o, g)
	default:
		return fmt.Errorf("unknown workload %q (sim-o, sim-b, fleet-mix)", o.workload)
	}
	if err != nil {
		return err
	}
	return rep.print(stdout)
}
