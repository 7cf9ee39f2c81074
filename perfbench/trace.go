package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"abndp"
)

// span is one timed call the benchmark made into a layer. Calls too
// frequent to record one by one (App.Execute runs once per simulated
// task) are recorded as one span per op carrying the summed duration and
// the call count.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: none
	Op     int    `json:"op"`               // op index within the run, -1 for set-up and probes
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"` // fleet-mix: the request's route key
	Start  int64  `json:"start_us"`      // since the tracer started
	Dur    int64  `json:"dur_us"`
	Calls  int    `json:"calls,omitempty"` // >0 for aggregated spans
}

// tracer keeps spans in memory; write dumps them once the run ends. A nil
// tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID (0 for a nil tracer).
func (t *tracer) add(s span, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Start = start.Sub(t.t0).Microseconds()
	s.Dur = dur.Microseconds()
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedApp times the four App callbacks the ndp runtime makes. It embeds
// the wrapped App, so Name and any other method pass straight through; the
// runtime makes no type assertions on the App, so the result, and its
// ResultHash, are those of the unwrapped App.
type tracedApp struct {
	abndp.App
	setup, initial, exec, endTS time.Duration
	execN, endN                 int
}

func (a *tracedApp) Setup(sys *abndp.System) {
	t := time.Now()
	a.App.Setup(sys)
	a.setup += time.Since(t)
}

func (a *tracedApp) InitialTasks(emit func(*abndp.Task)) {
	t := time.Now()
	a.App.InitialTasks(emit)
	a.initial += time.Since(t)
}

func (a *tracedApp) Execute(t *abndp.Task, ctx *abndp.ExecCtx) int64 {
	s := time.Now()
	n := a.App.Execute(t, ctx)
	a.exec += time.Since(s)
	a.execN++
	return n
}

func (a *tracedApp) EndTimestamp(ts int64) {
	t := time.Now()
	a.App.EndTimestamp(ts)
	a.endTS += time.Since(t)
	a.endN++
}

// runTraced performs one cold run like abndp.Run, through the public
// NewApp / NewSystem / System.Run entry points, recording a span for each
// and for the App callbacks.
func runTraced(t *tracer, op int, app string, d abndp.Design, cfg abndp.Config, p abndp.Params) (*abndp.Result, error) {
	opStart := time.Now()
	start := opStart
	a, err := abndp.NewApp(app, p)
	if err != nil {
		return nil, err
	}
	newApp := time.Since(start)
	start = time.Now()
	sys, err := abndp.NewSystem(cfg, d)
	if err != nil {
		return nil, err
	}
	newSys := time.Since(start)
	ta := &tracedApp{App: a}
	runStart := time.Now()
	res := sys.Run(ta)
	runDur := time.Since(runStart)

	root := t.add(span{Op: op, Name: "op " + app}, opStart, time.Since(opStart))
	t.add(span{Parent: root, Op: op, Name: "abndp.NewApp"}, opStart, newApp)
	t.add(span{Parent: root, Op: op, Name: "abndp.NewSystem"}, opStart.Add(newApp), newSys)
	run := t.add(span{Parent: root, Op: op, Name: "System.Run"}, runStart, runDur)
	t.add(span{Parent: run, Op: op, Name: "App.Setup", Calls: 1}, runStart, ta.setup)
	t.add(span{Parent: run, Op: op, Name: "App.InitialTasks", Calls: 1}, runStart, ta.initial)
	t.add(span{Parent: run, Op: op, Name: "App.Execute", Calls: ta.execN}, runStart, ta.exec)
	t.add(span{Parent: run, Op: op, Name: "App.EndTimestamp", Calls: ta.endN}, runStart, ta.endTS)
	return res, nil
}

// spanSum totals the duration of the spans named name, in ms.
func spanSum(spans []span, name string) float64 {
	var us int64
	for _, s := range spans {
		if s.Name == name {
			us += s.Dur
		}
	}
	return float64(us) / 1e3
}

func spanPath(workload string) string {
	return fmt.Sprintf(".bench_build/spans-%s.jsonl", workload)
}
