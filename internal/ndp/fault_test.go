package ndp_test

import (
	"fmt"
	"sync"
	"testing"

	"abndp/internal/apps"
	"abndp/internal/config"
	"abndp/internal/fault"
	"abndp/internal/ndp"
)

// faultDigest extends digest with the fault counters and the verdict, so a
// determinism comparison covers the degradation machinery too.
func faultDigest(r *ndp.Result) string {
	f := r.Stats.Faults
	return digest(r) + fmt.Sprintf("|fr=%d|fu=%d|re=%d|rd=%d|rr=%d|rh=%d|du=%d|dl=%d|uv=%q",
		f.DRAMRetries, f.DRAMUncorrected, f.TasksReExecuted, f.TasksRedistributed,
		f.ReroutedMsgs, f.ReroutedExtraHops, f.DeadUnits, f.DeadLinks, r.Unrecoverable)
}

func faultRun(t *testing.T, d config.Design, app, spec string) *ndp.Result {
	t.Helper()
	cfg := config.Default()
	cfg.UnitBytes = 16 << 20
	if spec != "" {
		p, err := fault.Parse(spec)
		if err != nil {
			t.Fatalf("fault.Parse(%q): %v", spec, err)
		}
		cfg.Faults = p
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	a, err := apps.New(app, apps.Params{Scale: 8, Degree: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return ndp.NewSystem(cfg, d).Run(a)
}

// TestNoFaultGolden pins the no-fault results to the values produced by the
// pre-fault-injection tree: an empty FaultPlan must leave every code path —
// RNG draws, event ordering, cost arithmetic — untouched. The full
// ResultHash table over every workload, design and fault plan is
// TestGoldenResultHashes.
func TestNoFaultGolden(t *testing.T) {
	golden := []struct {
		app                          string
		design                       config.Design
		makespan, tasks, steps, hops int64
	}{
		{"pr", config.DesignB, 6381, 768, 3, 17278},
		{"pr", config.DesignSm, 6839, 768, 3, 13044},
		{"pr", config.DesignSl, 6404, 768, 3, 21706},
		{"pr", config.DesignSh, 6532, 768, 3, 13576},
		{"pr", config.DesignC, 5910, 768, 3, 12290},
		{"pr", config.DesignO, 5793, 768, 3, 15650},
		{"bfs", config.DesignB, 3201, 175, 4, 5915},
		{"bfs", config.DesignSm, 3005, 175, 4, 4381},
		{"bfs", config.DesignSl, 3005, 175, 4, 7080},
		{"bfs", config.DesignSh, 3128, 175, 4, 5290},
		{"bfs", config.DesignC, 2972, 175, 4, 4769},
		{"bfs", config.DesignO, 3083, 175, 4, 6330},
	}
	for _, g := range golden {
		r := faultRun(t, g.design, g.app, "")
		if r.Makespan != g.makespan || r.Tasks != g.tasks || r.Steps != g.steps || r.InterHops != g.hops {
			t.Errorf("%s/%s = (mk=%d tasks=%d steps=%d hops=%d), want (mk=%d tasks=%d steps=%d hops=%d)",
				g.app, g.design, r.Makespan, r.Tasks, r.Steps, r.InterHops,
				g.makespan, g.tasks, g.steps, g.hops)
		}
		if r.Stats.Faults.Any() {
			t.Errorf("%s/%s: fault counters nonzero without a plan: %+v", g.app, g.design, r.Stats.Faults)
		}
		if r.Unrecoverable != "" {
			t.Errorf("%s/%s: unexpected verdict %q", g.app, g.design, r.Unrecoverable)
		}
	}
}

// TestFaultDeterminism: the same (Config, FaultPlan) must reproduce bit for
// bit, for every fault class at once.
func TestFaultDeterminism(t *testing.T) {
	const spec = "dram:0.002:3;slow:9:4:2;slow:35-36:3@1000-4000;kill:70@2500;link:5:e@1500;seed:7"
	for _, d := range []config.Design{config.DesignB, config.DesignO} {
		a := faultDigest(faultRun(t, d, "pr", spec))
		b := faultDigest(faultRun(t, d, "pr", spec))
		if a != b {
			t.Errorf("design %s: repeated faulty run diverged:\n got %s\nwant %s", d, b, a)
		}
	}
}

// TestFaultyRunsConcurrent is the -race guard for the fault layer: several
// faulty simulations run concurrently and must match the serial reference.
func TestFaultyRunsConcurrent(t *testing.T) {
	const spec = "dram:0.001;slow:9:4;kill:70@2500;link:5:e@1500"
	want := faultDigest(faultRun(t, config.DesignO, "pr", spec))
	var wg sync.WaitGroup
	got := make([]string, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = faultDigest(faultRun(t, config.DesignO, "pr", spec))
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent faulty run %d diverged:\n got %s\nwant %s", i, g, want)
		}
	}
}

// TestDRAMErrors: transient errors cost retries (and possibly uncorrected
// penalties) but never lose work.
func TestDRAMErrors(t *testing.T) {
	healthy := faultRun(t, config.DesignO, "pr", "")
	r := faultRun(t, config.DesignO, "pr", "dram:0.01:2")
	if r.Unrecoverable != "" {
		t.Fatalf("verdict %q, want completion", r.Unrecoverable)
	}
	if r.Tasks != healthy.Tasks {
		t.Errorf("tasks = %d, want %d", r.Tasks, healthy.Tasks)
	}
	if r.Stats.Faults.DRAMRetries == 0 {
		t.Error("expected DRAM retries at p=0.01")
	}
	if r.Makespan < healthy.Makespan {
		t.Errorf("makespan %d under DRAM errors beat the healthy %d", r.Makespan, healthy.Makespan)
	}
}

// TestStragglers: slowed cores inflate the makespan but the run completes
// with no task-level recovery events.
func TestStragglers(t *testing.T) {
	healthy := faultRun(t, config.DesignO, "pr", "")
	r := faultRun(t, config.DesignO, "pr", "slow:9:8:4;slow:35:8:4;slow:70:8:4;slow:104:8:4")
	if r.Unrecoverable != "" {
		t.Fatalf("verdict %q, want completion", r.Unrecoverable)
	}
	if r.Tasks != healthy.Tasks {
		t.Errorf("tasks = %d, want %d", r.Tasks, healthy.Tasks)
	}
	if r.Makespan <= healthy.Makespan {
		t.Errorf("makespan %d with 8x stragglers did not exceed healthy %d", r.Makespan, healthy.Makespan)
	}
	if f := r.Stats.Faults; f.TasksReExecuted != 0 || f.TasksRedistributed != 0 {
		t.Errorf("stragglers should not trigger task recovery: %+v", f)
	}
}

// TestUnitFailure: killing units mid-run re-executes lost work elsewhere
// and still completes every task, for every design.
func TestUnitFailure(t *testing.T) {
	for _, d := range []config.Design{config.DesignB, config.DesignSm, config.DesignSl, config.DesignSh, config.DesignO} {
		healthy := faultRun(t, d, "pr", "")
		r := faultRun(t, d, "pr", "kill:70@2500;kill:9@3000")
		if r.Unrecoverable != "" {
			t.Errorf("design %s: verdict %q, want completion", d, r.Unrecoverable)
			continue
		}
		if r.Tasks != healthy.Tasks {
			t.Errorf("design %s: tasks = %d, want %d", d, r.Tasks, healthy.Tasks)
		}
		if r.Stats.Faults.DeadUnits != 2 {
			t.Errorf("design %s: DeadUnits = %d, want 2", d, r.Stats.Faults.DeadUnits)
		}
		if f := r.Stats.Faults; f.TasksReExecuted+f.TasksRedistributed == 0 {
			t.Errorf("design %s: no recovery events after mid-run kills: %+v", d, f)
		}
	}
}

// TestLinkFailure: messages re-route around a dead link and the run
// completes.
func TestLinkFailure(t *testing.T) {
	healthy := faultRun(t, config.DesignO, "pr", "")
	r := faultRun(t, config.DesignO, "pr", "link:5:e@500;link:5:s@500")
	if r.Unrecoverable != "" {
		t.Fatalf("verdict %q, want completion", r.Unrecoverable)
	}
	if r.Tasks != healthy.Tasks {
		t.Errorf("tasks = %d, want %d", r.Tasks, healthy.Tasks)
	}
	if r.Stats.Faults.DeadLinks != 2 {
		t.Errorf("DeadLinks = %d, want 2", r.Stats.Faults.DeadLinks)
	}
	if r.Stats.Faults.ReroutedMsgs == 0 {
		t.Error("expected rerouted messages through stack 5's dead links")
	}
}

// TestAllUnitsDeadUnrecoverable: graceful degradation ends in an explicit
// verdict, not a hang, when no live unit remains.
func TestAllUnitsDeadUnrecoverable(t *testing.T) {
	cfg := config.Default()
	cfg.UnitBytes = 16 << 20
	cfg.Faults = fault.MustParse(fmt.Sprintf("kill:0-%d@2500", cfg.Units()-1))
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := apps.New("pr", apps.Params{Scale: 8, Degree: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r := ndp.NewSystem(cfg, config.DesignO).Run(a)
	if r.Unrecoverable == "" {
		t.Fatal("expected an unrecoverable verdict with every unit dead")
	}
	if r.Makespan != 2500 {
		t.Errorf("verdict makespan = %d, want the kill cycle 2500", r.Makespan)
	}
}

// TestRetryBudgetExhaustion: a retry budget of 0 turns the first lost task
// into an unrecoverable verdict instead of a silent loop.
func TestRetryBudgetExhaustion(t *testing.T) {
	// Two kill waves 100 cycles apart catch re-executed tasks in flight a
	// second time. With the default budget the lone survivor (unit 127)
	// finishes every task; with a budget of 1, the second loss of the same
	// task is the verdict.
	const spec = "kill:0-63@2500;kill:64-126@2600"
	recovered := faultRun(t, config.DesignO, "pr", spec)
	if recovered.Unrecoverable != "" || recovered.Stats.Faults.TasksReExecuted == 0 {
		t.Fatalf("reference run: verdict %q, reexecuted %d; want completion with re-executions",
			recovered.Unrecoverable, recovered.Stats.Faults.TasksReExecuted)
	}
	healthy := faultRun(t, config.DesignO, "pr", "")
	if recovered.Tasks != healthy.Tasks {
		t.Errorf("tasks = %d on the lone survivor, want %d", recovered.Tasks, healthy.Tasks)
	}
	r := faultRun(t, config.DesignO, "pr", spec+";retry:1")
	if r.Unrecoverable == "" {
		t.Error("expected a verdict with retry budget 1 and two kill waves")
	}
}
