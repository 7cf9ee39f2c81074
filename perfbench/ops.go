package main

import (
	"fmt"
	"math/rand"

	"abndp"
)

// Inputs come from fixed pools so that every op at every seed has a golden
// ResultHash. The seed picks the order in which a run draws from the pools;
// the program only ever sees the generated inputs.
const (
	// simPool is the number of distinct inputs per app in the sim
	// workloads; input simPool is reserved for the untimed warm-up.
	simPool = 16
	// fleetPool is the number of distinct cold inputs of fleet-mix. One
	// fleet never sees an input twice: when the callers have used up the
	// pool, the run moves on to a fresh fleet. With a variant per two
	// colds, a fleet sees at most fleetPool*3/2 distinct keys plus the
	// warm-up's, below the proxy's default JobCap of 1024: past that cap
	// hits would move from the dedup path to the result-store path.
	fleetPool = 640
	// fleetWarmPerCaller is the number of cold inputs each caller sends in
	// one set-up: two groups of four.
	fleetWarmPerCaller = 4
	// fleetWarm is the number of reserved warm-up cold inputs of
	// fleet-mix, numbered fleetPool ... fleetPool+fleetWarm-1. Every
	// repetition of the set-up gets its own, so none of them starts with
	// the process-wide input cache warm.
	fleetWarm = setupReps * fleetCallers * fleetWarmPerCaller
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median, so one slow repetition does not move it.
	setupReps = 3
)

// simApps are the eight Figure-6 workloads in figure order.
var simApps = abndp.Workloads()

// simParams sizes input i of app: the default Params{} size with the input
// seed varied, except astar at scale 10 (its default scale takes seconds
// per op under design O).
func simParams(app string, input int) abndp.Params {
	p := abndp.Params{Seed: int64(1000 + input)}
	if app == "astar" {
		p.Scale = 10
	}
	return p
}

// simOp is one cold abndp.Run call.
type simOp struct {
	App   string
	Input int
}

func (o simOp) goldenKey(workload string) string {
	return fmt.Sprintf("%s/%s/%d", workload, o.App, o.Input)
}

// simSchedule returns the op sequence of a sim workload: round r runs the
// eight apps in figure order, app a on input perm_a[r mod simPool], where
// perm_a is a seeded permutation of the pool.
type simSchedule [][]int // per app, the permutation of inputs

func newSimSchedule(seed int64) simSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := make(simSchedule, len(simApps))
	for a := range s {
		s[a] = rng.Perm(simPool)
	}
	return s
}

// round returns the ops of round r.
func (s simSchedule) round(r int) []simOp {
	ops := make([]simOp, len(simApps))
	for a, app := range simApps {
		ops[a] = simOp{App: app, Input: s[a][r%simPool]}
	}
	return ops
}

// warmRound is the untimed warm-up: one op per app on the reserved input.
func warmRound() []simOp {
	ops := make([]simOp, len(simApps))
	for a, app := range simApps {
		ops[a] = simOp{App: app, Input: simPool}
	}
	return ops
}

// Request classes of fleet-mix.
const (
	classCold    = "cold"
	classVariant = "variant"
	classHit     = "hit"
)

var classes = []string{classCold, classVariant, classHit}

// fleetOp is one request of fleet-mix. Cold and variant requests name a
// pool input; a hit names the earlier cold input it resubmits.
type fleetOp struct {
	Class string
	Input int
}

// Every fleet-mix request is pr on design O at scale 10, degree 6.
const (
	fleetApp    = "pr"
	fleetDesign = "O"
)

func fleetParams(input int) abndp.Params {
	return abndp.Params{Scale: 10, Degree: 6, Seed: int64(5000 + input)}
}

// variantAlpha is the hybrid alpha of input i's variant. The default alpha
// (half the mesh diameter, 3 on the 4x4 mesh) is never chosen, so a variant
// is always a new key.
func variantAlpha(input int) float64 {
	return []float64{1, 2, 6}[input%3]
}

func (o fleetOp) goldenKey() string {
	if o.Class == classVariant {
		return fmt.Sprintf("fleet-mix/variant/%d", o.Input)
	}
	return fmt.Sprintf("fleet-mix/cold/%d", o.Input)
}

// fleetCaller generates one closed-loop caller's requests. In each group
// of four it sends two colds on fresh pool inputs, a variant of the latest
// cold, and a hit on a seeded choice among its earlier colds. Caller c of
// n takes every n-th input of one seeded permutation of the pool, so
// callers never share a key and no cold input repeats within one fleet.
type fleetCaller struct {
	inputs []int
	rng    *rand.Rand
	next   int   // index into inputs
	colds  []int // cold inputs sent so far
	step   int
}

func newFleetCaller(seed int64, c, n int) *fleetCaller {
	perm := rand.New(rand.NewSource(seed)).Perm(fleetPool)
	var mine []int
	for i := c; i < len(perm); i += n {
		mine = append(mine, perm[i])
	}
	return &fleetCaller{inputs: mine, rng: rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))}
}

// newWarmCaller is caller c's warm-up in set-up repetition rep: its own
// reserved inputs, the same pattern, independent of the seed.
func newWarmCaller(rep, c int) *fleetCaller {
	first := fleetPool + (rep*fleetCallers+c)*fleetWarmPerCaller
	var mine []int
	for i := 0; i < fleetWarmPerCaller; i++ {
		mine = append(mine, first+i)
	}
	return &fleetCaller{inputs: mine, rng: rand.New(rand.NewSource(int64(first)))}
}

// exhausted reports whether the caller has finished its last group.
func (f *fleetCaller) exhausted() bool { return f.step%4 == 0 && f.next >= len(f.inputs) }

// nextOp returns the caller's next request, or ok=false once its share of
// the cold pool is used up.
func (f *fleetCaller) nextOp() (fleetOp, bool) {
	pos := f.step % 4
	if pos < 2 && f.next >= len(f.inputs) {
		return fleetOp{}, false
	}
	f.step++
	switch pos {
	case 0, 1:
		in := f.inputs[f.next]
		f.next++
		f.colds = append(f.colds, in)
		return fleetOp{Class: classCold, Input: in}, true
	case 2:
		return fleetOp{Class: classVariant, Input: f.colds[len(f.colds)-1]}, true
	default:
		return fleetOp{Class: classHit, Input: f.colds[f.rng.Intn(len(f.colds))]}, true
	}
}
