package core

import (
	"math/rand"
	"testing"

	"abndp/internal/config"
	"abndp/internal/mem"
	"abndp/internal/noc"
	"abndp/internal/topology"
)

// TestMemCostVecBitIdentical is the load-bearing equivalence behind every
// placement decision: each MemCostVec entry must be bit for bit the value
// the per-unit reference MemCost produces, or simulated results change.
func TestMemCostVecBitIdentical(t *testing.T) {
	for _, campAware := range []bool{false, true} {
		e, cm := newEnv(true)
		model := NewCostModel(e.noc, cm, campAware)
		hints := [][]mem.Line{
			{7},
			{3, 1 << 20, 7777777, 42424242},
			{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13},
			{1 << 29, 5, 1 << 29, 5}, // duplicate lines stay duplicated
		}
		for _, lines := range hints {
			vec := model.MemCostVec(lines)
			if len(vec) != e.topo.Units() {
				t.Fatalf("vec length %d, want %d", len(vec), e.topo.Units())
			}
			_, cands := model.Candidates(lines, nil, nil)
			for u := 0; u < e.topo.Units(); u++ {
				want := model.MemCost(cands, topology.UnitID(u))
				if vec[u] != want {
					t.Fatalf("campAware=%v lines=%v unit %d: vec %v != MemCost %v",
						campAware, lines, u, vec[u], want)
				}
			}
		}
	}
}

func TestMemCostVecEmptyHint(t *testing.T) {
	e, cm := newEnv(true)
	model := NewCostModel(e.noc, cm, true)
	model.MemCostVec([]mem.Line{1, 2, 3}) // dirty the scratch first
	vec := model.MemCostVec(nil)
	for u, v := range vec {
		if v != 0 {
			t.Fatalf("empty hint: unit %d cost %v, want 0", u, v)
		}
	}
	if len(vec) != e.topo.Units() {
		t.Fatalf("vec length %d", len(vec))
	}
}

// TestMemCostVecMatchesOracle compares the per-stack kernel bit for bit
// with the per-unit reference on random line sets, across topologies the
// config accepts, skewed and identical camp mapping, camp-awareness on and
// off, and random dead-unit masks (dead homes included: a home stays a
// valid data location when its unit dies).
func TestMemCostVecMatchesOracle(t *testing.T) {
	topos := []struct {
		name string
		mut  func(*config.Config)
	}{
		{"4x4", func(*config.Config) {}},
		{"2x2-torus", func(c *config.Config) { c.MeshX, c.MeshY, c.Torus = 2, 2, true }},
		{"8x8", func(c *config.Config) { c.MeshX, c.MeshY = 8, 8 }},
	}
	rng := rand.New(rand.NewSource(1))
	sets := 0
	for _, tp := range topos {
		cfg := config.Default()
		cfg.UnitBytes = 1 << 20
		tp.mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", tp.name, err)
		}
		topo := topology.New(topology.Config{
			MeshX: cfg.MeshX, MeshY: cfg.MeshY,
			UnitsPerStack: cfg.UnitsPerStack, Groups: cfg.Groups(), Torus: cfg.Torus,
		})
		space := mem.NewSpace(topo.Units(), cfg.UnitBytes)
		n := noc.New(topo, &cfg)
		totalLines := int64(space.TotalBytes() / mem.LineSize)
		for _, skewed := range []bool{true, false} {
			cm := NewCampMap(topo, space, skewed)
			for _, campAware := range []bool{true, false} {
				model := NewCostModel(n, cm, campAware)
				for trial := 0; trial < 1100; trial++ {
					var dead []bool
					if trial%2 == 1 {
						dead = make([]bool, topo.Units())
						frac := rng.Float64()
						for u := range dead {
							dead[u] = rng.Float64() < frac
						}
					}
					model.SetDeadMask(dead)
					lines := make([]mem.Line, rng.Intn(20))
					for i := range lines {
						if i > 0 && rng.Intn(4) == 0 {
							lines[i] = lines[rng.Intn(i)] // duplicate line
						} else {
							lines[i] = mem.Line(rng.Int63n(totalLines))
						}
					}
					vec := model.MemCostVec(lines)
					_, cands := model.Candidates(lines, nil, nil)
					for u := range vec {
						if want := model.MemCost(cands, topology.UnitID(u)); vec[u] != want {
							t.Fatalf("%s skewed=%v campAware=%v dead=%v lines=%v unit %d: vec %v, oracle %v",
								tp.name, skewed, campAware, dead != nil, lines, u, vec[u], want)
						}
					}
					sets++
				}
			}
		}
	}
	if sets < 12000 {
		t.Fatalf("compared %d line sets, want at least 12000", sets)
	}
}

// TestMemCostVecAllocationFree: the kernel runs once per placement, so it
// works entirely in the model's scratch, dead-camp filtering included.
func TestMemCostVecAllocationFree(t *testing.T) {
	e, cm := newEnv(true)
	model := NewCostModel(e.noc, cm, true)
	dead := make([]bool, e.topo.Units())
	dead[5], dead[77] = true, true
	model.SetDeadMask(dead)
	lines := []mem.Line{3, 1 << 20, 7777777, 42424242, 5, 1 << 29}
	if n := testing.AllocsPerRun(100, func() { model.MemCostVec(lines) }); n != 0 {
		t.Fatalf("MemCostVec allocated %v times per call, want 0", n)
	}
}
