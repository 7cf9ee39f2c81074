package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abndp/client"
	"abndp/internal/apps"
	"abndp/internal/fleet"
	"abndp/internal/serve"
)

// fleetCallers is the closed-loop caller count of fleet-mix; the client
// transport allows as many connections.
const fleetCallers = 2

// requestTimeout bounds one request, so a hung fleet fails its ops instead
// of stalling the run; a cold request takes tens of milliseconds.
const requestTimeout = 30 * time.Second

// namedUnit is a metric name with its unit.
type namedUnit struct{ name, unit string }

// fleetOnlyLayers are per-layer metrics only fleet-mix measures; the sim
// workloads report them as 0.
var fleetOnlyLayers = []namedUnit{
	{"ckpt.hit_ratio", "ratio"},
	{"serve.queue_wait_p50_ms", "ms"}, {"serve.queue_wait_p90_ms", "ms"},
	{"serve.run_cold_p50_ms", "ms"}, {"serve.run_variant_p50_ms", "ms"},
	{"serve.runs_per_req", "1/req"},
	{"fleet.proxy_self_p50_ms", "ms"}, {"fleet.backend_calls_per_req", "1/req"},
	{"fleet.dedup_ratio", "ratio"}, {"client.polls_per_req", "1/req"},
	{"cold_p50_ms", "ms"}, {"cold_p90_ms", "ms"},
	{"variant_p50_ms", "ms"}, {"variant_p90_ms", "ms"},
	{"hit_p50_ms", "ms"}, {"hit_p90_ms", "ms"},
}

// simOnlyLayers are per-layer metrics measured only by the sim workloads,
// which make the NewSystem and App calls themselves; inside a serve
// backend those calls are out of the benchmark's reach.
var simOnlyLayers = []namedUnit{
	{"sched.forwarded_ratio", "ratio"}, {"ndp.new_system_ms", "ms"},
	{"traveller.bypass_ratio", "ratio"}, {"apps.setup_ms", "ms"},
	{"apps.callbacks_ms", "ms"}, {"cache.l1_hit_ratio", "ratio"},
	{"cache.pf_hits_per_task", "1/task"}, {"dram.accesses_per_task", "1/task"},
	{"dram.queue_cycles_per_access", "cycles"}, {"ndp.run_self_ms", "ms"},
}

// fleetEnv is one in-process fleet: two serve backends with abndpserve's
// default flags (GOMAXPROCS workers, checkpoint store, queue 64) behind one
// fleet.Coordinator with default config, all on loopback.
type fleetEnv struct {
	backends []*serve.Server
	urls     []string
	coord    *fleet.Coordinator
	proxyURL string
	servers  []*http.Server
	serveWG  sync.WaitGroup
	wire     *wireTrace
}

func startFleet(wire *wireTrace) (*fleetEnv, error) {
	e := &fleetEnv{wire: wire}
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{ID: fmt.Sprintf("b%d", i), Checkpoint: true})
		e.backends = append(e.backends, srv)
		url, err := e.listen(wire.wrap(fmt.Sprintf("b%d", i), srv.Handler()))
		if err != nil {
			e.stop()
			return nil, err
		}
		e.urls = append(e.urls, url)
	}
	coord, err := fleet.New(fleet.Config{Backends: e.urls})
	if err != nil {
		e.stop()
		return nil, err
	}
	e.coord = coord
	if e.proxyURL, err = e.listen(wire.wrap("proxy", coord.Handler())); err != nil {
		e.stop()
		return nil, err
	}
	return e, nil
}

func (e *fleetEnv) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	e.servers = append(e.servers, srv)
	e.serveWG.Add(1)
	go func() {
		defer e.serveWG.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop tears the fleet down and waits for every goroutine it started.
func (e *fleetEnv) stop() {
	if e.coord != nil {
		e.coord.Close()
	}
	for _, s := range e.servers {
		_ = s.Close() // in-flight requests have all returned by now
	}
	e.serveWG.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, b := range e.backends {
		_ = b.Drain(ctx) // the queue is empty; Drain only stops the workers
	}
}

// newClient returns a client of the proxy whose transport is capped at
// fleetCallers connections.
func (e *fleetEnv) newClient() *client.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: fleetCallers, MaxIdleConnsPerHost: fleetCallers}
	if e.wire != nil {
		rt = &tracedTransport{base: rt, wire: e.wire}
	}
	return &client.Client{BaseURL: e.proxyURL, HTTP: &http.Client{Transport: rt}}
}

func (e *fleetEnv) closeClient(c *client.Client) { c.HTTP.CloseIdleConnections() }

func runRequest(op fleetOp) serve.RunRequest {
	p := fleetParams(op.Input)
	req := serve.RunRequest{App: fleetApp, Design: fleetDesign,
		Params: &serve.ParamsSpec{Scale: p.Scale, Degree: p.Degree, Seed: p.Seed}}
	if op.Class == classVariant {
		a := variantAlpha(op.Input)
		req.Config = &serve.ConfigSpec{Alpha: &a}
	}
	return req
}

// opRecord is one completed fleet-mix request.
type opRecord struct {
	op    fleetOp
	key   string // route key
	start time.Time
	lat   time.Duration
	st    *serve.RunStatus
}

// fleetPhase collects the records of one measured phase.
type fleetPhase struct {
	mu        sync.Mutex
	records   []opRecord
	groupSecs []float64 // wall time of each caller's groups of four
	cpuPerOp  []float64 // process CPU ms per request, one per window
	win       cpuMark   // start of the current CPU window
}

// cpuMark is the process CPU time when ops requests had completed.
type cpuMark struct {
	cpu time.Duration
	ops int
}

// groupSize is the length of a caller's request pattern.
const groupSize = 4

// cpuWindow is the least number of requests in one CPU window: ten groups,
// so each window holds the full class mix.
const cpuWindow = 40

// startWindow opens a CPU window; an epoch's fleet start-up falls outside
// every window.
func (ph *fleetPhase) startWindow() {
	ph.mu.Lock()
	ph.win = cpuMark{cpuTime(), len(ph.records)}
	ph.mu.Unlock()
}

func (ph *fleetPhase) add(rec opRecord) {
	ph.mu.Lock()
	ph.records = append(ph.records, rec)
	ph.mu.Unlock()
}

// groupDone records a finished group and closes the CPU window once it
// holds cpuWindow requests.
func (ph *fleetPhase) groupDone(secs float64) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.groupSecs = append(ph.groupSecs, secs)
	if n := len(ph.records) - ph.win.ops; n >= cpuWindow {
		now := cpuTime()
		ph.cpuPerOp = append(ph.cpuPerOp, 1e3*(now-ph.win.cpu).Seconds()/float64(n))
		ph.win = cpuMark{now, len(ph.records)}
	}
}

// opsPerSec is the closed loop's throughput, estimated from the median
// group time so one slow stretch of a noisy host does not move it: each
// caller completes groupSize requests per group.
func (ph *fleetPhase) opsPerSec() float64 {
	return ratio(float64(fleetCallers*groupSize), median(ph.groupSecs))
}

// cpuMsPerOp is the median over CPU windows of process CPU time per
// request. It includes the servers' goroutines and GC.
func (ph *fleetPhase) cpuMsPerOp() float64 { return median(ph.cpuPerOp) }

// fleetRun is one fleet-mix invocation.
type fleetRun struct {
	seed    int64
	wire    *wireTrace // nil: untraced run
	golden  goldenTable
	rep     *report
	env     *fleetEnv
	cl      *client.Client
	epoch   int
	callers []*fleetCaller
	retired counters // totals of the fleets retired at epoch ends
	mu      sync.Mutex
	colds   map[int]string // cold input -> its hash, for checking hits
	pre     [fleetCallers]digest
}

func runFleet(o options, g goldenTable) (*report, error) {
	f := &fleetRun{seed: o.seed, golden: g, rep: newReport(), colds: map[int]string{}}
	if o.trace {
		f.wire = &wireTrace{ids: map[string]string{}}
	}

	// Set-up, repeated: start the fleet (including the coordinator's first
	// probe round) and send each caller's warm-up groups on reserved
	// inputs. All but the last fleet are torn down again.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		f.stopFleet()
		start := time.Now()
		if err := f.startFleet(); err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		for c := 0; c < fleetCallers; c++ {
			wg.Add(1)
			go func(c int, fc *fleetCaller) {
				defer wg.Done()
				for op, ok := fc.nextOp(); ok; op, ok = fc.nextOp() {
					f.do(context.Background(), c, -1, op)
				}
			}(c, newWarmCaller(i, c))
		}
		wg.Wait()
		setups = append(setups, time.Since(start).Seconds())
	}
	defer f.stopFleet()
	f.newCallers()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	m, err := f.measure(o.seconds, tr)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		slow := m.host.slowdown()
		f.rep.info = append(f.rep.info, fmt.Sprintf("raw: setup_s %.4f, ops_per_s %.4f, cpu_ms_per_op %.3f; host slowdown %.3f",
			median(setups), m.plain.opsPerSec(), m.plain.cpuMsPerOp(), slow))
		f.rep.set("setup_s", median(setups)/slow, "s")
		f.rep.set("ops_per_s", m.plain.opsPerSec()*slow, "1/s")
		f.rep.set("cpu_ms_per_op", m.plain.cpuMsPerOp()/slow, "ms")
		f.rep.set("alloc_mb_per_op", ratio(float64(m.mem.allocBytes)/1e6, float64(len(m.plain.records))), "MB")
		f.rep.set("peak_rss_mb", peakRSSMB(), "MB")
		f.classLatencies(m.plain, false)
	} else {
		f.perLayer(tr, m)
		f.rep.set("trace.overhead_pct", 100*ratio(m.plain.opsPerSec()-m.traced.opsPerSec(), m.plain.opsPerSec()), "%")
		if err := tr.write(spanPath(o.workload)); err != nil {
			return nil, err
		}
	}
	for c := range f.pre {
		f.rep.info = append(f.rep.info, fmt.Sprintf("deterministic (caller %d, first %d requests): digest=%s", c, len(f.pre[c].pairs), f.pre[c].sum()))
	}
	return f.rep, nil
}

func (f *fleetRun) startFleet() error {
	env, err := startFleet(f.wire)
	if err != nil {
		return err
	}
	f.env, f.cl = env, env.newClient()
	return nil
}

// stopFleet tears the current fleet down, if there is one.
func (f *fleetRun) stopFleet() {
	if f.env != nil {
		f.env.closeClient(f.cl)
		f.env.stop()
		f.env, f.cl = nil, nil
	}
}

// newCallers starts the callers of the current epoch. Epoch e's op
// sequence comes from the seed and e alone.
func (f *fleetRun) newCallers() {
	f.callers = make([]*fleetCaller, fleetCallers)
	for c := range f.callers {
		f.callers[c] = newFleetCaller(f.seed+int64(f.epoch)*1_000_003, c, fleetCallers)
	}
}

// nextEpoch replaces the fleet, whose callers have used up the cold pool,
// with a fresh one, so a run can go on sending cold requests without its
// fleet ever holding more than the pool's keys. The old fleet's memory is
// collected before the new one starts, so the process's peak RSS is that
// of one fleet, not two.
func (f *fleetRun) nextEpoch() error {
	c, err := f.fleetCounters()
	if err != nil {
		return err
	}
	f.retired = f.retired.add(c)
	f.stopFleet()
	runtime.GC()
	if err := f.startFleet(); err != nil {
		return err
	}
	f.epoch++
	f.newCallers()
	return nil
}

// hostInterval is the period of fleet-mix's reference kernel sampler; at
// about 2.5 ms a sample, it takes 2.5% of one core.
const hostInterval = 100 * time.Millisecond

// traceSlice is the length of the alternating untraced and traced
// stretches of a traced fleet-mix run.
const traceSlice = 2 * time.Second

// fleetMeasure is what one measured stretch of fleet-mix yields.
type fleetMeasure struct {
	plain, traced *fleetPhase      // groups by whether tracing was on at their start
	host          hostSpeed        // reference kernel, sampled every hostInterval
	layers        map[string]int64 // CPU-profile ns per layer, traced stretches
	counters      counters         // server-side counts over the stretch
	mem           memSnap
}

// measure runs the callers' closed loops for dur, in whole groups of four
// requests. When the callers have used up the cold pool, the run moves to
// a fresh fleet (nextEpoch) and goes on. With a tracer, tracing and a CPU
// profile are switched on and off every traceSlice, so traced and
// untraced groups sample the same stretch of host time and their
// difference in ops_per_s is the tracing overhead.
func (f *fleetRun) measure(dur time.Duration, tr *tracer) (*fleetMeasure, error) {
	m := &fleetMeasure{plain: &fleetPhase{}, traced: &fleetPhase{}, layers: map[string]int64{}}
	before, err := f.counters()
	if err != nil {
		return nil, err
	}
	m0 := readMem()
	start := time.Now()
	// The fleet keeps both cores busy, so there is no idle moment to time
	// the host in; a sampler times the reference kernel every
	// hostInterval alongside the requests instead (it then also measures
	// the run's own CPU contention, which is the same from run to run).
	hostStop := make(chan struct{})
	var hostWG sync.WaitGroup
	hostWG.Add(1)
	go func() {
		defer hostWG.Done()
		t := time.NewTicker(hostInterval)
		defer t.Stop()
		for {
			select {
			case <-hostStop:
				return
			case <-t.C:
				m.host.sample()
			}
		}
	}()

	var on atomic.Bool // tracing is on
	stop := make(chan struct{})
	var slicer sync.WaitGroup
	var profErr error
	if tr != nil {
		slicer.Add(1)
		go func() {
			defer slicer.Done()
			profErr = f.slice(tr, &on, stop, m.layers)
		}()
	}

	for {
		m.plain.startWindow()
		m.traced.startWindow()
		var wg sync.WaitGroup
		for c, fc := range f.callers {
			wg.Add(1)
			go func(c int, fc *fleetCaller) {
				defer wg.Done()
				for time.Since(start) < dur && !fc.exhausted() {
					ph := m.plain
					if on.Load() {
						ph = m.traced
					}
					g0 := time.Now()
					for i := 0; i < groupSize; i++ {
						op, _ := fc.nextOp()
						if rec, ok := f.do(context.Background(), c, f.epoch*fleetPool+fc.step-1, op); ok {
							ph.add(rec)
						}
					}
					ph.groupDone(time.Since(g0).Seconds())
				}
			}(c, fc)
		}
		wg.Wait()
		if time.Since(start) >= dur {
			break
		}
		if err := f.nextEpoch(); err != nil {
			close(stop)
			slicer.Wait()
			return nil, err
		}
	}
	close(stop)
	slicer.Wait()
	close(hostStop)
	hostWG.Wait()
	if profErr != nil {
		return nil, profErr
	}
	elapsed := time.Since(start)
	m.mem = readMem().sub(m0)
	after, err := f.counters()
	if err != nil {
		return nil, err
	}
	m.counters = after.sub(before)
	n := len(m.plain.records) + len(m.traced.records)
	f.rep.info = append(f.rep.info, fmt.Sprintf("measured %d requests (%d traced) in %.2f s, %d fleet epochs (%.2f requests/s overall)",
		n, len(m.traced.records), elapsed.Seconds(), f.epoch+1, float64(n)/elapsed.Seconds()))
	return m, nil
}

// slice switches tracing and the CPU profile on and off every traceSlice
// until stop closes, adding each profile's layer times to layers.
func (f *fleetRun) slice(tr *tracer, on *atomic.Bool, stop <-chan struct{}, layers map[string]int64) error {
	tick := time.NewTicker(traceSlice)
	defer tick.Stop()
	var prof bytes.Buffer
	off := func() error {
		on.Store(false)
		f.wire.tr.Store(nil)
		pprof.StopCPUProfile()
		l, err := layerTimes(prof.Bytes())
		for k, v := range l {
			layers[k] += v
		}
		return err
	}
	for {
		select {
		case <-stop:
			if on.Load() {
				return off()
			}
			return nil
		case <-tick.C:
			if on.Load() {
				if err := off(); err != nil {
					return err
				}
				continue
			}
			prof.Reset()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
			f.wire.tr.Store(tr)
			on.Store(true)
		}
	}
}

// do sends one request and checks it: it must end "done" with the golden
// hash, and a hit must repeat its cold request's hash. A request that takes
// longer than requestTimeout fails. seq < 0 marks a warm-up request.
func (f *fleetRun) do(ctx context.Context, caller, seq int, op fleetOp) (opRecord, bool) {
	req := runRequest(op)
	rec := opRecord{op: op, key: serve.RouteKey(&req)}
	ctx, cancel := context.WithTimeout(context.WithValue(ctx, opKeyCtx{}, rec.key), requestTimeout)
	defer cancel()
	rec.start = time.Now()
	st, err := f.cl.SubmitWait(ctx, req)
	rec.lat = time.Since(rec.start)
	rec.st = st
	if f.wire != nil {
		f.wire.tr.Load().add(span{Op: seq, Name: "client op " + op.Class, Key: rec.key}, rec.start, rec.lat)
	}
	f.rep.countAttempt()
	switch {
	case err != nil:
	case st.Status != serve.StateDone:
		err = fmt.Errorf("%s: status %s: %s", op.goldenKey(), st.Status, st.Error)
	default:
		err = f.golden.check(op.goldenKey(), st.ResultHash)
	}
	if err == nil && op.Class != classVariant {
		f.mu.Lock()
		if want, ok := f.colds[op.Input]; ok && want != st.ResultHash {
			err = fmt.Errorf("%s: %s repeated a cold request with hash %s as %s", op.goldenKey(), op.Class, want, st.ResultHash)
		} else if op.Class == classCold {
			f.colds[op.Input] = st.ResultHash
		}
		f.mu.Unlock()
	}
	if err != nil {
		f.rep.fail(fmt.Errorf("%s request on input %d: %w", op.Class, op.Input, err))
		return rec, false
	}
	if seq >= 0 && seq < digestOps/2 {
		f.mu.Lock()
		f.pre[caller].add(fmt.Sprintf("%d/%s", seq, op.goldenKey()), st.ResultHash)
		f.mu.Unlock()
	}
	return rec, true
}

// classLatencies prints submit-to-terminal latency per request class and,
// when set is true, reports it as metrics. A percentile without ten samples
// beyond it is reported as 0.
func (f *fleetRun) classLatencies(ph *fleetPhase, set bool) {
	byClass := map[string][]float64{}
	for _, r := range ph.records {
		byClass[r.op.Class] = append(byClass[r.op.Class], float64(r.lat.Microseconds())/1e3)
	}
	for _, c := range classes {
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p90", 0.9}} {
			p := percentile(byClass[c], q.q)
			name := c + "_" + q.name + "_ms"
			if set {
				f.rep.set(name, okValue(p), "ms")
			}
			f.rep.info = append(f.rep.info, fmt.Sprintf("%-16s %10.3f ms over %d requests (reported=%v)", name, p.Value, p.N, p.OK))
		}
	}
}

// counters are the cumulative server-side counts a traced phase reads.
type counters struct {
	runs, submitted, deduped int64
	ckptHits, ckptMisses     int64
	inputHits, inputMisses   int64
	events                   int64
}

func (c counters) add(o counters) counters {
	return counters{c.runs + o.runs, c.submitted + o.submitted, c.deduped + o.deduped,
		c.ckptHits + o.ckptHits, c.ckptMisses + o.ckptMisses,
		c.inputHits + o.inputHits, c.inputMisses + o.inputMisses, c.events + o.events}
}

func (c counters) sub(o counters) counters {
	return c.add(counters{-o.runs, -o.submitted, -o.deduped, -o.ckptHits, -o.ckptMisses,
		-o.inputHits, -o.inputMisses, -o.events})
}

// counters returns the run's totals so far: the retired fleets', the
// current fleet's and the process-wide input cache's.
func (f *fleetRun) counters() (counters, error) {
	c, err := f.fleetCounters()
	if err != nil {
		return c, err
	}
	c = c.add(f.retired)
	c.inputHits, c.inputMisses = apps.InputCacheStats()
	return c, nil
}

// fleetCounters reads the current fleet's counters.
func (f *fleetRun) fleetCounters() (counters, error) {
	var c counters
	ctx := context.Background()
	for i, b := range f.env.backends {
		h, err := client.New(f.env.urls[i]).Health(ctx)
		if err != nil {
			return c, err
		}
		c.runs += h.Runs
		if st := b.Runner().Store(); st != nil {
			s := st.Stats()
			c.ckptHits += s.Hits
			c.ckptMisses += s.Misses
		}
		ev, _ := b.Runner().EngineTotals()
		c.events += ev
	}
	resp, err := http.Get(f.env.proxyURL + "/healthz")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	var fh fleet.FleetHealth
	if err := json.NewDecoder(resp.Body).Decode(&fh); err != nil {
		return c, fmt.Errorf("proxy /healthz: %w", err)
	}
	c.submitted, c.deduped = fh.Submitted, fh.Deduped
	return c, nil
}

// perLayer derives the per-layer metrics of a traced phase.
func (f *fleetRun) perLayer(tr *tracer, m *fleetMeasure) {
	r := f.rep
	d := m.counters
	all := append(append([]opRecord(nil), m.plain.records...), m.traced.records...)
	n := float64(len(all))
	setCommonLayers(r, m.layers, m.mem, n)
	f.classLatencies(m.plain, true) // untraced groups: latency as users see it
	for _, nu := range simOnlyLayers {
		r.set(nu.name, 0, nu.unit)
	}

	var queue, runCold, runVariant []float64
	var tasks, makespan, hops, hitRate, simulated float64
	for _, rec := range all {
		if rec.op.Class == classHit || rec.st.Result == nil {
			continue
		}
		sub, _ := time.Parse(time.RFC3339Nano, rec.st.SubmittedAt)
		beg, _ := time.Parse(time.RFC3339Nano, rec.st.StartedAt)
		end, _ := time.Parse(time.RFC3339Nano, rec.st.FinishedAt)
		queue = append(queue, float64(beg.Sub(sub).Microseconds())/1e3)
		run := float64(end.Sub(beg).Microseconds()) / 1e3
		if rec.op.Class == classCold {
			runCold = append(runCold, run)
		} else {
			runVariant = append(runVariant, run)
		}
		s := rec.st.Result
		simulated++
		tasks += float64(s.Tasks)
		makespan += float64(s.Makespan)
		hops += float64(s.InterHops)
		hitRate += s.CacheHitRate
	}
	setPct := func(name string, xs []float64, q float64) {
		p := percentile(xs, q)
		r.set(name, okValue(p), "ms")
		r.info = append(r.info, fmt.Sprintf("%-24s over %d samples (reported=%v)", name, p.N, p.OK))
	}
	setPct("serve.queue_wait_p50_ms", queue, 0.5)
	setPct("serve.queue_wait_p90_ms", queue, 0.9)
	setPct("serve.run_cold_p50_ms", runCold, 0.5)
	setPct("serve.run_variant_p50_ms", runVariant, 0.5)
	r.set("serve.runs_per_req", ratio(float64(d.runs), n), "1/req")
	r.set("ckpt.hit_ratio", ratio(float64(d.ckptHits), float64(d.ckptHits+d.ckptMisses)), "ratio")
	r.set("apps.input_cache_hit_ratio", ratio(float64(d.inputHits), float64(d.inputHits+d.inputMisses)), "ratio")
	r.set("fleet.dedup_ratio", ratio(float64(d.deduped), float64(d.submitted)), "ratio")
	r.set("sim.events", ratio(float64(d.events), float64(d.runs)), "1/op")
	r.set("ndp.tasks", ratio(tasks, simulated), "1/op")
	r.set("ndp.makespan_kcycles", ratio(makespan, simulated)/1e3, "kcycles")
	r.set("noc.inter_hops_per_task", ratio(hops, tasks), "1/task")
	r.set("traveller.hit_ratio", ratio(hitRate, simulated), "ratio")

	spans := tr.snapshot()
	var polls, backendCalls float64
	for _, s := range spans {
		switch {
		case s.Name == "client GET /v1/runs/{id}":
			polls++
		case strings.HasPrefix(s.Name, "b") && strings.Contains(s.Name, "/v1/runs"):
			backendCalls++
		}
	}
	traced := float64(len(m.traced.records))
	r.set("client.polls_per_req", ratio(polls, traced), "1/req")
	r.set("fleet.backend_calls_per_req", ratio(backendCalls, traced), "1/req")
	setPct("fleet.proxy_self_p50_ms", proxySelf(tr, m.traced.records), 0.5)
}
