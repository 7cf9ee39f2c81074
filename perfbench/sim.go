package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"abndp"
)

// digestOps is how many leading ops of a sim run feed the printed digest
// and engine counts. Every run of at least two rounds completes them, so
// two runs of the same seed compare however long each ran.
const digestOps = 16

// engineCounts sums the deterministic simulated statistics of results.
type engineCounts struct {
	ops                                   int
	events, tasks, steps, makespan, hops  int64
	forwarded, l1Hits, l1Misses, pfHits   int64
	dramAcc, dramQueue                    int64
	tcHits, tcMisses, tcInserts, tcBypass int64
}

func (c *engineCounts) add(res *abndp.Result) {
	c.ops++
	c.events += res.Events
	c.tasks += res.Tasks
	c.steps += res.Steps
	c.makespan += res.Makespan
	c.hops += res.InterHops
	for _, u := range res.Stats.Units {
		c.forwarded += u.TasksForwarded
		c.l1Hits += u.L1Hits
		c.l1Misses += u.L1Misses
		c.pfHits += u.PFHits
		c.dramAcc += u.DRAMReads + u.DRAMWrites
		c.dramQueue += u.DRAMQueueCycles
		c.tcHits += u.CacheHits
		c.tcMisses += u.CacheMisses
		c.tcInserts += u.CacheInserts
		c.tcBypass += u.CacheBypasses
	}
}

func (c *engineCounts) String() string {
	return fmt.Sprintf("events=%d tasks=%d steps=%d makespan_cycles=%d inter_hops=%d", c.events, c.tasks, c.steps, c.makespan, c.hops)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simRun is one sim workload invocation.
type simRun struct {
	opts   options
	design abndp.Design
	golden goldenTable
	rep    *report
	sched  simSchedule
	round  int // next round to run
	ops    int // ops run in measured rounds

	// The first digestOps measured ops, for the deterministic summary.
	prefixHashes digest
	prefixCounts engineCounts
}

func runSim(o options, d abndp.Design, g goldenTable) (*report, error) {
	s := &simRun{opts: o, design: d, golden: g, rep: newReport(), sched: newSimSchedule(o.seed)}

	// The reference kernel runs before every op, outside the op's timing,
	// so it samples the host at the same moments as the ops.
	var setups []float64
	var setupHost hostSpeed
	for i := 0; i < setupReps; i++ {
		var dur time.Duration
		for _, op := range warmRound() {
			setupHost.sample()
			start := time.Now()
			s.do(nil, op, -1)
			dur += time.Since(start)
		}
		setups = append(setups, dur.Seconds())
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	plain, traced, err := s.measure(o.seconds, tr)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		setupSlow, slow := setupHost.slowdown(), plain.host.slowdown()
		s.rep.info = append(s.rep.info, fmt.Sprintf("raw: setup_s %.4f, ops_per_s %.4f, cpu_ms_per_op %.3f; host slowdown %.3f (set-up %.3f)",
			median(setups), plain.opsPerSec(), plain.cpuMsPerOp(), slow, setupSlow))
		s.rep.set("setup_s", median(setups)/setupSlow, "s")
		s.rep.set("ops_per_s", plain.opsPerSec()*slow, "1/s")
		s.rep.set("cpu_ms_per_op", plain.cpuMsPerOp()/slow, "ms")
		s.rep.set("alloc_mb_per_op", plain.allocMBPerOp(), "MB")
		s.rep.set("peak_rss_mb", peakRSSMB(), "MB")
	} else {
		s.perLayer(tr, traced)
		s.rep.set("trace.overhead_pct", 100*ratio(plain.opsPerSec()-traced.opsPerSec(), plain.opsPerSec()), "%")
		if err := tr.write(spanPath(o.workload)); err != nil {
			return nil, err
		}
	}
	s.rep.info = append(s.rep.info,
		fmt.Sprintf("deterministic (first %d ops): digest=%s %s", s.prefixCounts.ops, s.prefixHashes.sum(), &s.prefixCounts))
	return s.rep, nil
}

// do runs one op through the plain or the traced entry points, checks its
// hash against the golden table, and returns the result (nil on failure).
func (s *simRun) do(tr *tracer, op simOp, idx int) *abndp.Result {
	cfg := abndp.DefaultConfig()
	var res *abndp.Result
	var err error
	if tr == nil {
		res, err = abndp.Run(op.App, s.design, cfg, simParams(op.App, op.Input))
	} else {
		res, err = runTraced(tr, idx, op.App, s.design, cfg, simParams(op.App, op.Input))
	}
	key := op.goldenKey(s.opts.workload)
	if err == nil {
		err = s.golden.check(key, hashString(abndp.ResultHash(res)))
	}
	s.rep.countAttempt()
	if err != nil {
		s.rep.fail(err)
		return nil
	}
	if idx >= 0 && idx < digestOps {
		s.prefixHashes.add(key, hashString(abndp.ResultHash(res)))
		s.prefixCounts.add(res)
	}
	return res
}

// simPhase accumulates the rounds of one kind, traced or untraced.
type simPhase struct {
	wall, cpu   map[string][]float64 // per app, seconds per op
	ops, rounds int
	mem         memSnap
	counts      engineCounts
	layers      map[string]int64 // traced rounds: CPU-profile ns per layer
	host        hostSpeed        // reference kernel, once before every op
}

func newSimPhase() *simPhase {
	return &simPhase{wall: map[string][]float64{}, cpu: map[string][]float64{}, layers: map[string]int64{}}
}

// Host speed on a shared VM swings by tens of percent from one op to the
// next, so time figures are built from medians: the time of a round is
// estimated as the sum over the eight apps of the median time of that
// app's ops. Ops of one app are comparable where ops of different apps
// are not, and the sum keeps every app's weight in the mix.
func medianRound(perApp map[string][]float64) float64 {
	var sum float64
	for _, app := range simApps {
		sum += median(perApp[app])
	}
	return sum
}

func (p *simPhase) opsPerSec() float64 {
	return ratio(float64(len(simApps)), medianRound(p.wall))
}

func (p *simPhase) cpuMsPerOp() float64 {
	return 1e3 * medianRound(p.cpu) / float64(len(simApps))
}

func (p *simPhase) allocMBPerOp() float64 {
	return ratio(float64(p.mem.allocBytes)/1e6, float64(p.ops))
}

// measure runs whole rounds until dur has passed. Untraced (tr nil), every
// round is plain. Traced, odd rounds run through runTraced under a CPU
// profile and even rounds run plain, so the two kinds sample the same
// stretch of host time and their difference in ops_per_s is the tracing
// overhead; at least one round of each kind runs.
func (s *simRun) measure(dur time.Duration, tr *tracer) (plain, traced *simPhase, err error) {
	plain, traced = newSimPhase(), newSimPhase()
	start := time.Now()
	for r := 0; r < 1 || (tr != nil && r < 2) || time.Since(start) < dur; r++ {
		ph, t := plain, (*tracer)(nil)
		var prof bytes.Buffer
		if tr != nil && r%2 == 1 {
			ph, t = traced, tr
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, nil, err
			}
		}
		for _, op := range s.sched.round(s.round) {
			ph.host.sample()
			m0, t0, c0 := readMem(), time.Now(), cpuTime()
			res := s.do(t, op, s.ops)
			ph.wall[op.App] = append(ph.wall[op.App], time.Since(t0).Seconds())
			ph.cpu[op.App] = append(ph.cpu[op.App], (cpuTime() - c0).Seconds())
			ph.mem = ph.mem.add(readMem().sub(m0))
			if res != nil {
				ph.counts.add(res)
			}
			s.ops++
			ph.ops++
		}
		if t != nil {
			pprof.StopCPUProfile()
			layers, err := layerTimes(prof.Bytes())
			if err != nil {
				return nil, nil, err
			}
			for l, ns := range layers {
				ph.layers[l] += ns
			}
		}
		s.round++
		ph.rounds++
	}
	s.rep.info = append(s.rep.info, fmt.Sprintf("measured %d ops in %d rounds, %.2f s (%d rounds traced)",
		s.ops, plain.rounds+traced.rounds, time.Since(start).Seconds(), traced.rounds))
	return plain, traced, nil
}

// perLayer derives the per-layer metrics of a traced phase.
func (s *simRun) perLayer(tr *tracer, m *simPhase) {
	spans := tr.snapshot()
	ops := float64(m.ops)
	c := &m.counts
	callbacks := spanSum(spans, "App.Setup") + spanSum(spans, "App.InitialTasks") +
		spanSum(spans, "App.Execute") + spanSum(spans, "App.EndTimestamp")
	setCommonLayers(s.rep, m.layers, m.mem, ops)
	r := s.rep
	r.set("sched.forwarded_ratio", ratio(float64(c.forwarded), float64(c.tasks)), "ratio")
	r.set("ndp.new_system_ms", spanSum(spans, "abndp.NewSystem")/ops, "ms")
	r.set("traveller.hit_ratio", ratio(float64(c.tcHits), float64(c.tcHits+c.tcMisses)), "ratio")
	r.set("traveller.bypass_ratio", ratio(float64(c.tcBypass), float64(c.tcInserts+c.tcBypass)), "ratio")
	r.set("apps.setup_ms", spanSum(spans, "App.Setup")/ops, "ms")
	r.set("apps.callbacks_ms", callbacks/ops, "ms")
	r.set("apps.input_cache_hit_ratio", 0, "ratio")
	r.set("cache.l1_hit_ratio", ratio(float64(c.l1Hits), float64(c.l1Hits+c.l1Misses)), "ratio")
	r.set("cache.pf_hits_per_task", ratio(float64(c.pfHits), float64(c.tasks)), "1/task")
	r.set("dram.accesses_per_task", ratio(float64(c.dramAcc), float64(c.tasks)), "1/task")
	r.set("dram.queue_cycles_per_access", ratio(float64(c.dramQueue), float64(c.dramAcc)), "cycles")
	r.set("noc.inter_hops_per_task", ratio(float64(c.hops), float64(c.tasks)), "1/task")
	r.set("sim.events", float64(c.events)/ops, "1/op")
	r.set("ndp.tasks", float64(c.tasks)/ops, "1/op")
	r.set("ndp.makespan_kcycles", float64(c.makespan)/1e3/ops, "kcycles")
	r.set("ndp.run_self_ms", (spanSum(spans, "System.Run")-callbacks)/ops, "ms")
	for _, name := range fleetOnlyLayers {
		r.set(name.name, 0, name.unit)
	}
}

// setCommonLayers reports the CPU-profile shares of System.Run and the Go
// runtime's cost per op, which every workload has.
func setCommonLayers(r *report, layers map[string]int64, mem memSnap, ops float64) {
	var total int64
	for _, v := range layers {
		total += v
	}
	share := func(l string) float64 { return ratio(float64(layers[l]), float64(total)) }
	r.set("sched.place_share", share(layerPlace), "ratio")
	r.set("mem.path_share", share(layerMem), "ratio")
	r.set("apps.share", share(layerApps), "ratio")
	r.set("sim.queue_share", share(layerQueue), "ratio")
	r.set("runtime.gc_share", share(layerRuntime), "ratio")
	r.set("runtime.gc_cycles_per_op", float64(mem.gcCycles)/ops, "1/op")
	r.set("runtime.gc_cpu_ms_per_op", 1e3*mem.gcCPU/ops, "ms")
}
