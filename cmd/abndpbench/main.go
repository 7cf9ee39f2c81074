// Command abndpbench regenerates the paper's evaluation: every table and
// figure of §7, printed as text tables of the same normalized metrics.
//
// Usage:
//
//	abndpbench                 # the full suite (Tables 1-2, Figures 2-18)
//	abndpbench -exp fig6,fig8  # selected experiments
//	abndpbench -quick          # shrunken workloads (smoke test)
//	abndpbench -j 8            # simulate on 8 worker goroutines
//	abndpbench -serial         # one run at a time (same output, slower)
//	abndpbench -benchjson f    # write harness wall-clock metrics to f
//	abndpbench -check          # audit every run (invariants + dual-run hash)
//	abndpbench -engine checkpoint  # placement-vector checkpoint store
//	abndpbench -warmsweep      # cold-vs-warm re-simulation speedup sweep
//	abndpbench -remote URL     # render on a running abndpserve instead
//
// Simulation runs are planned up front and executed on a worker pool
// (GOMAXPROCS-wide by default); each run stays single-goroutine, so the
// tables are byte-identical at any -j.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"abndp/client"
	"abndp/internal/bench"
	"abndp/internal/ckpt"
	"abndp/internal/obs"
)

func main() {
	var (
		exps   = flag.String("exp", "all", "comma-separated experiments (tab1 tab2 fig2 fig6..fig18, ablrepl ablprobe ablhint abltopo, resilience) or 'all'")
		quick  = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
		svg    = flag.String("svg", "", "also render the figures as SVG files into this directory")
		jobs   = flag.Int("j", 0, "worker goroutines for simulation runs (0 = GOMAXPROCS)")
		serial = flag.Bool("serial", false, "run simulations one at a time (equivalent to -j 1)")
		bjson  = flag.String("benchjson", "", "write per-experiment wall-clock metrics to this JSON file (e.g. BENCH_20260805.json)")
		prog   = flag.Bool("progress", false, "report per-experiment and per-run progress to stderr")
		srv    = flag.String("pprof", "", "serve pprof+expvar+Prometheus /metrics debug HTTP on this address (e.g. :6060)")
		cpup   = flag.String("cpuprofile", "", "write a CPU profile of the harness to this file")
		memp   = flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
		rdl    = flag.Duration("rundeadline", 0, "per-run wall-clock deadline; a run past it is recorded as hung and skipped (0 = the 10m default, negative disables)")
		chk    = flag.Bool("check", false, "audit every run: invariant checker armed plus a dual-run determinism hash (roughly doubles simulation time; violations print and exit non-zero)")
		remote = flag.String("remote", "", "fetch the experiments from a running abndpserve at this base URL (e.g. http://localhost:8080) instead of simulating locally")
		engine = flag.String("engine", "serial", "simulation engine: 'serial' (default, no store) or 'checkpoint' (prefix-key store reuse); results are byte-identical either way")
		ckptOn = flag.Bool("ckpt", false, "shorthand for -engine checkpoint")
		warm   = flag.Bool("warmsweep", false, "also run the cold-vs-warm re-simulation sweep (checkpoint/delta speedup measurement; result lands in -benchjson)")
	)
	flag.Parse()

	// Validate the worker flags before doing any work: a negative -j or a
	// contradictory -serial -j N is a 2-exit usage error, not a silent
	// clamp (the same rule abndpserve applies).
	workers, err := bench.ValidateWorkers(*jobs, *serial)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abndpbench:", err)
		os.Exit(2)
	}

	if *remote != "" {
		runRemote(*remote, *exps)
		return
	}

	if *srv != "" {
		addr, err := obs.StartDebugServer(*srv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abndpbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "abndpbench: debug server at http://%s/debug/pprof/ (metrics at /metrics)\n", addr)
	}
	if *cpup != "" {
		f, err := os.Create(*cpup)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abndpbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "abndpbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	r := bench.NewRunner(os.Stdout)
	r.SetQuick(*quick)
	if *prog {
		r.SetProgress(os.Stderr)
	}
	r.SetWorkers(workers)
	if *rdl != 0 {
		r.SetRunDeadline(*rdl)
	}
	r.SetCheck(*chk)

	if *ckptOn && *engine == "serial" {
		*engine = "checkpoint"
	}
	switch *engine {
	case "serial":
	case "checkpoint":
		r.SetCheckpointStore(ckpt.NewStore(0))
	default:
		fmt.Fprintf(os.Stderr, "abndpbench: unknown -engine %q (serial, checkpoint)\n", *engine)
		os.Exit(2)
	}

	start := time.Now()
	if *exps == "all" {
		r.RunAll()
	} else if *exps == "none" { // e.g. -exp none -warmsweep: just the sweep below
	} else {
		for _, e := range strings.Split(*exps, ",") {
			if err := r.Run(strings.TrimSpace(e)); err != nil {
				fmt.Fprintln(os.Stderr, "abndpbench:", err)
				os.Exit(1)
			}
		}
	}
	if *warm {
		r.RunWarmSweep()
	}
	if *svg != "" {
		files, err := r.RenderSVGs(*svg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abndpbench:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d SVG figures to %s\n", len(files), *svg)
	}
	if *bjson != "" {
		if err := r.Metrics().WriteJSON(*bjson); err != nil {
			fmt.Fprintln(os.Stderr, "abndpbench:", err)
			os.Exit(1)
		}
	}
	if *memp != "" {
		f, err := os.Create(*memp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abndpbench:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "abndpbench:", err)
			os.Exit(1)
		}
		f.Close()
	}
	m := r.Metrics()
	fmt.Printf("\ncompleted in %.1fs: %d runs, %.3g engine events, %.3g events/sec (%s engine)\n",
		time.Since(start).Seconds(), m.Runs, float64(m.EventsTotal), m.EventsPerSec, m.Engine)
	if m.Checkpoint != nil {
		fmt.Printf("checkpoint store: %d hits, %d misses, %d inserts, %d shards, %.1f MiB\n",
			m.Checkpoint.Hits, m.Checkpoint.Misses, m.Checkpoint.Inserts,
			m.Checkpoint.Shards, float64(m.Checkpoint.Bytes)/(1<<20))
	}
	if ws := m.WarmSweep; ws != nil {
		fmt.Printf("warm sweep: %.2fx speedup over %d points (cold %.2fs, prime %.2fs, warm %.2fs)\n",
			ws.Speedup, ws.Points, ws.ColdSeconds, ws.PrimeSeconds, ws.WarmSeconds)
	}

	exit := 0

	// Crash-isolated runs that panicked or hung: the sweep above still
	// rendered (their rows hold placeholders), but the harness exits
	// non-zero so CI and scripts notice.
	if fails := r.Failures(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "\nabndpbench: %d run(s) FAILED (rows hold placeholder values):\n", len(fails))
		for _, f := range fails {
			kind := "panic"
			if f.Hung {
				kind = "hung"
			}
			fmt.Fprintf(os.Stderr, "  [%s] %s: %s\n", kind, f.Key, f.Err)
		}
		exit = 1
	}

	// Invariant-audit verdict (-check): the violations are also in the
	// metrics JSON when -benchjson was given.
	if *chk {
		runs, evals := r.CheckCounts()
		if vs := r.CheckViolations(); len(vs) > 0 {
			fmt.Fprintf(os.Stderr, "\nabndpbench: audit FAILED: %d violation(s) over %d runs (%d invariant evaluations):\n",
				len(vs), runs, evals)
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "  %s: %s\n", v.Key, v.Violation)
			}
			exit = 1
		} else {
			fmt.Printf("audit PASSED: %d runs, %d invariant evaluations, 0 violations\n", runs, evals)
		}
	}
	if exit != 0 {
		os.Exit(exit) // note: skips the profile-writer defers, like any failed run
	}
}

// runRemote renders the requested experiments on a running abndpserve
// instance instead of simulating locally: the service's warm cache pays
// for each run once across every client.
func runRemote(baseURL, exps string) {
	var names []string
	if exps == "all" {
		names = append(names, bench.Experiments...)
		names = append(names, bench.AblationExperiments...)
		names = append(names, bench.ResilienceExperiments...)
	} else {
		for _, e := range strings.Split(exps, ",") {
			names = append(names, strings.TrimSpace(e))
		}
	}
	c := client.New(baseURL)
	ctx := context.Background()
	if h, err := c.Health(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "abndpbench: %s not healthy: %v\n", baseURL, err)
		os.Exit(1)
	} else {
		fmt.Fprintf(os.Stderr, "abndpbench: rendering %d experiment(s) on %s (%d workers, %d runs cached)\n",
			len(names), baseURL, h.Workers, h.Runs)
	}
	start := time.Now()
	for _, name := range names {
		out, err := c.Experiment(ctx, name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abndpbench:", err)
			os.Exit(1)
		}
		fmt.Print(out)
	}
	fmt.Printf("\ncompleted in %.1fs\n", time.Since(start).Seconds())
}
