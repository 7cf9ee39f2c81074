package main

import (
	"bytes"
	"context"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"abndp"
)

func fleetOps(seed int64, c, n int) []fleetOp {
	fc := newFleetCaller(seed, c, 2)
	var ops []fleetOp
	for i := 0; i < n; i++ {
		op, ok := fc.nextOp()
		if !ok {
			break
		}
		ops = append(ops, op)
	}
	return ops
}

func TestOpSequencesArePureFunctionsOfTheSeed(t *testing.T) {
	if !reflect.DeepEqual(newSimSchedule(7), newSimSchedule(7)) {
		t.Fatal("sim schedule differs between two calls with seed 7")
	}
	if reflect.DeepEqual(newSimSchedule(7), newSimSchedule(8)) {
		t.Fatal("sim schedule is the same for seeds 7 and 8")
	}
	if !reflect.DeepEqual(fleetOps(7, 0, 400), fleetOps(7, 0, 400)) {
		t.Fatal("fleet caller sequence differs between two calls with seed 7")
	}
	if reflect.DeepEqual(fleetOps(7, 0, 400), fleetOps(8, 0, 400)) {
		t.Fatal("fleet caller sequence is the same for seeds 7 and 8")
	}

	// Callers never share a cold input, no cold input repeats, variants
	// follow the latest cold and hits repeat an earlier cold.
	seen := map[int]bool{}
	for c := 0; c < 2; c++ {
		ops := fleetOps(3, c, 1<<20)
		if len(ops) != fleetPool {
			t.Fatalf("caller %d: %d ops, want %d (its share of the pool, two colds per group of four)", c, len(ops), fleetPool)
		}
		mine := map[int]bool{}
		last := -1
		for i, op := range ops {
			switch op.Class {
			case classCold:
				if seen[op.Input] {
					t.Fatalf("cold input %d sent twice", op.Input)
				}
				seen[op.Input], mine[op.Input], last = true, true, op.Input
			case classVariant:
				if op.Input != last {
					t.Fatalf("op %d: variant of %d, latest cold was %d", i, op.Input, last)
				}
			case classHit:
				if !mine[op.Input] {
					t.Fatalf("op %d: hit on %d, which this caller never sent cold", i, op.Input)
				}
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{99, 0.9, false, 90}, {100, 0.9, true, 90}, {19, 0.5, false, 10},
		{20, 0.5, true, 10}, {0, 0.5, false, 0},
	} {
		p := percentile(seq(c.n), c.q)
		if p.OK != c.ok || p.N != c.n || p.Value != c.want {
			t.Errorf("percentile(%d samples, %v) = %+v, want value %v ok=%v n=%d", c.n, c.q, p, c.want, c.ok, c.n)
		}
		if !c.ok && okValue(p) != 0 {
			t.Errorf("okValue reports %v for a percentile without ten samples beyond it", okValue(p))
		}
	}
}

func mustGolden(t *testing.T) goldenTable {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCorruptedGoldenEntryFailsItsOp(t *testing.T) {
	g := mustGolden(t)
	op := simOp{App: "pr", Input: 3}
	key := op.goldenKey("sim-b")
	run := func(g goldenTable) *report {
		s := &simRun{opts: options{workload: "sim-b"}, design: abndp.DesignB, golden: g, rep: newReport()}
		s.do(nil, op, 0)
		return s.rep
	}
	if r := run(g); r.attempted != 1 || r.failed != 0 {
		t.Fatalf("intact table: attempted %d failed %d (%v)", r.attempted, r.failed, r.errs)
	}
	bad := goldenTable{}
	for k, v := range g {
		bad[k] = v
	}
	bad[key] = "0123456789abcdef"
	if r := run(bad); r.attempted != 1 || r.failed != 1 {
		t.Fatalf("corrupted entry %s: attempted %d failed %d, want the op to fail", key, r.attempted, r.failed)
	}
}

func TestAppWrapperKeepsResultHash(t *testing.T) {
	g := mustGolden(t)
	for _, d := range []struct {
		workload string
		design   abndp.Design
	}{{"sim-o", abndp.DesignO}, {"sim-b", abndp.DesignB}} {
		op := simOp{App: "bfs", Input: 5}
		p := simParams(op.App, op.Input)
		plain, err := abndp.Run(op.App, d.design, abndp.DefaultConfig(), p)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, err := runTraced(tr, 0, op.App, d.design, abndp.DefaultConfig(), p)
		if err != nil {
			t.Fatal(err)
		}
		hp, ht := hashString(abndp.ResultHash(plain)), hashString(abndp.ResultHash(traced))
		if hp != ht || hp != g[op.goldenKey(d.workload)] {
			t.Errorf("%s: plain %s, wrapped %s, golden %s", d.workload, hp, ht, g[op.goldenKey(d.workload)])
		}
		if spanSum(tr.snapshot(), "App.Execute") <= 0 {
			t.Errorf("%s: no App.Execute time recorded", d.workload)
		}
	}
}

func TestHandlerWrappersKeepResultHash(t *testing.T) {
	g := mustGolden(t)
	hashes := map[bool][]string{}
	for _, traced := range []bool{false, true} {
		var wire *wireTrace
		tr := newTracer()
		if traced {
			wire = &wireTrace{ids: map[string]string{}}
			wire.tr.Store(tr)
		}
		env, err := startFleet(wire)
		if err != nil {
			t.Fatal(err)
		}
		f := &fleetRun{golden: g, rep: newReport(), env: env, cl: env.newClient(), colds: map[int]string{}}
		for _, op := range []fleetOp{{classCold, 11}, {classVariant, 11}, {classHit, 11}} {
			rec, ok := f.do(context.Background(), 0, 0, op)
			if !ok {
				t.Fatalf("traced=%v %s: %v", traced, op.Class, f.rep.errs)
			}
			hashes[traced] = append(hashes[traced], rec.st.ResultHash)
		}
		env.closeClient(f.cl)
		env.stop()
		if traced {
			var proxy, backend, cl int
			for _, s := range tr.snapshot() {
				switch s.Name[0] {
				case 'p':
					proxy++
				case 'b':
					backend++
				case 'c':
					cl++
				}
			}
			if proxy == 0 || backend == 0 || cl == 0 {
				t.Errorf("spans recorded: proxy %d, backend %d, client %d; want all tiers", proxy, backend, cl)
			}
		}
	}
	if !reflect.DeepEqual(hashes[false], hashes[true]) {
		t.Errorf("hashes without wrappers %v, with %v", hashes[false], hashes[true])
	}
}

func TestClassify(t *testing.T) {
	run := []string{"runtime.goexit", "main.main", runFrame}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{append(run, "abndp/internal/sim.(*Engine).Run", "abndp/internal/ndp.(*System).placeTask",
			"abndp/internal/sched.(*Scheduler).Place", "abndp/internal/noc.(*Model).Latency"), layerPlace},
		{append(run, "abndp/internal/sim.(*Engine).Run", "abndp/internal/ndp.(*System).fetchLine",
			"abndp/internal/noc.(*Model).Latency"), layerMem},
		{append(run, "main.(*tracedApp).Setup", "abndp/internal/graph.RMAT"), layerApps},
		{append(run, "abndp/internal/sim.(*Engine).Run", "abndp/internal/sim.(*Engine).popMin"), layerQueue},
		{append(run, "abndp/internal/sim.(*Engine).Run", "abndp/internal/ndp.(*System).complete"), layerGlue},
		{append(run, "abndp/internal/sched.(*Scheduler).Place", "runtime.mallocgc"), layerRuntime},
		{[]string{"runtime.goexit", "runtime.gcBgMarkWorker", "runtime.gcDrain"}, layerRuntime},
		{[]string{"runtime.goexit", "net/http.(*conn).serve"}, ""},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestLayerTimesParsesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < time.Second; {
		if _, err := abndp.Run("spmv", abndp.DesignO, abndp.DefaultConfig(), simParams("spmv", 0)); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	layers, err := layerTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if layers[layerPlace]+layers[layerMem]+layers[layerApps] == 0 {
		t.Fatalf("no samples attributed to placement, memory or apps: %v", layers)
	}
}
