package core

import (
	"fmt"

	"abndp/internal/mem"
	"abndp/internal/noc"
	"abndp/internal/topology"
)

// CostModel evaluates the scheduling score of Eq. 1:
//
//	score(t, u) = costmem(t, u) + B * costload(t, u)
//
// costmem (Eq. 2) is the mean one-way interconnect latency from candidate
// unit u to each accessed line's nearest data location — home only for
// cache-less designs, or the nearest of home+camps when the policy is
// camp-aware (the hardware/software co-design of §5.1). costload (Eq. 3)
// is W_u / mean(W) - 1 from the periodically exchanged load snapshots.
type CostModel struct {
	noc       *noc.Model
	camps     *CampMap
	campAware bool
	// campPenalty biases camp locations relative to the home: a camp
	// access pays the SRAM tag check and risks a miss detour, so a camp
	// only beats the home when it is meaningfully closer. Without this, a
	// single-use line's camp ties with its home at distance zero and load
	// noise scatters tasks onto camps that will never hit.
	campPenalty int64
	// dead, when non-nil, marks failed units whose camp slices no longer
	// hold data; costmem must not credit them as data locations. Homes stay
	// valid — a dead unit's memory stack still serves its channel.
	dead []bool

	// The per-stack kernel (MemCostVec). The latency from unit u to a
	// location l is 0 when u == l and otherwise depends only on the two
	// stacks, so stackLat[a*stacks+b] holds it for distinct units in
	// stacks a and b, and stackOf maps a unit to its stack.
	stacks   int
	stackOf  []int
	stackLat []int64

	// Kernel scratch, reused across calls: the CostModel belongs to one
	// System and is driven by its single simulation goroutine.
	locs     []topology.UnitID
	locStack []int
	stackMin []int64
	stackSum []int64
	corr     []int64
	vec      []float64
}

// SetDeadMask installs the fault layer's dead-unit mask (aliased, updated
// in place as units fail). Nil — the default — means all units are alive.
func (c *CostModel) SetDeadMask(dead []bool) { c.dead = dead }

// NewCostModel builds a cost model. campAware selects whether costmem may
// place data at camp locations (designs C-series caching is present *and*
// the policy knows it — design O) or only at homes (B, Sm, Sl, Sh).
func NewCostModel(n *noc.Model, camps *CampMap, campAware bool) *CostModel {
	topo := n.Topology()
	units, stacks := topo.Units(), topo.Stacks()
	c := &CostModel{
		noc:         n,
		camps:       camps,
		campAware:   campAware,
		campPenalty: n.InterHopCycles() / 2,
		stacks:      stacks,
		stackOf:     make([]int, units),
		stackLat:    make([]int64, stacks*stacks),
		locs:        make([]topology.UnitID, 0, topo.Groups()),
		locStack:    make([]int, 0, topo.Groups()),
		stackMin:    make([]int64, stacks),
		stackSum:    make([]int64, stacks),
		corr:        make([]int64, units),
		vec:         make([]float64, units),
	}
	// Derive the stack-pair table from the NoC's own unit latencies and
	// check that it reproduces every off-diagonal entry, so the kernel is
	// exact for any topology the NoC model builds.
	for u := range c.stackOf {
		c.stackOf[u] = int(topo.StackOf(topology.UnitID(u)))
	}
	for i := range c.stackLat {
		c.stackLat[i] = -1 // not yet seen; latencies are non-negative
	}
	for u := 0; u < units; u++ {
		for l := 0; l < units; l++ {
			if u == l {
				continue
			}
			i := c.stackOf[u]*stacks + c.stackOf[l]
			lat := n.Latency(topology.UnitID(u), topology.UnitID(l))
			if c.stackLat[i] < 0 {
				c.stackLat[i] = lat
			} else if c.stackLat[i] != lat {
				panic(fmt.Sprintf("core: latency %d->%d = %d differs from its stack pair's %d",
					u, l, lat, c.stackLat[i]))
			}
		}
	}
	return c
}

// CampAware reports whether camp locations participate in costmem.
func (c *CostModel) CampAware() bool { return c.campAware }

// MemCostVec returns costmem(t, u) — the mean over the hint's lines of the
// latency from u to the line's nearest data location — for every unit u
// at once. Locations are the home, plus, when camp-aware, every live camp
// carrying the camp penalty; dead camps are skipped, dead homes stay valid.
//
// Per line the kernel takes one minimum per stack instead of one per unit:
// every unit of stack s that holds none of the line's locations sees the
// same minimum over the stack-pair table. The at most C+1 units that hold
// a location (all distinct: one per group) get an exact per-unit
// correction. Sums stay int64 in per-stack and per-unit parts, and each
// unit's float division happens once at the end, so every entry is the
// same integer over the same divisor as evaluating the unit on its own.
//
// The returned slice is scratch owned by the model: it is valid until the
// next call and must be copied to be kept.
func (c *CostModel) MemCostVec(lines []mem.Line) []float64 {
	vec, sums, mins, corr := c.vec, c.stackSum, c.stackMin, c.corr
	if len(lines) == 0 {
		clear(vec)
		return vec
	}
	clear(sums)
	clear(corr)
	stacks, lat, pen := c.stacks, c.stackLat, c.campPenalty
	for _, l := range lines {
		locs := c.locs[:0]
		if c.campAware {
			locs = c.camps.AppendLocations(locs, l)
			if c.dead != nil {
				live := locs[:1]
				for _, loc := range locs[1:] {
					if !c.dead[loc] {
						live = append(live, loc)
					}
				}
				locs = live
			}
		} else {
			locs = append(locs, c.camps.Home(l))
		}
		ls := c.locStack[:0]
		for _, loc := range locs {
			ls = append(ls, c.stackOf[loc])
		}
		c.locs, c.locStack = locs, ls

		// Units holding no location: one minimum per stack.
		for s := 0; s < stacks; s++ {
			row := lat[s*stacks : (s+1)*stacks]
			best := row[ls[0]]
			for i := 1; i < len(ls); i++ {
				if v := row[ls[i]] + pen; v < best {
					best = v
				}
			}
			mins[s] = best
			sums[s] += best
		}
		// Units holding a location: their own location is at latency 0
		// (plus the penalty if it is a camp), so they replace their
		// stack's minimum with their own.
		for i, u := range locs {
			row := lat[ls[i]*stacks : (ls[i]+1)*stacks]
			var best int64
			if i > 0 {
				best = pen
			}
			for j := range locs {
				if j == i {
					continue
				}
				v := row[ls[j]]
				if j > 0 {
					v += pen
				}
				if v < best {
					best = v
				}
			}
			corr[u] += best - mins[ls[i]]
		}
	}
	n := float64(len(lines))
	for u := range vec {
		vec[u] = float64(sums[c.stackOf[u]]+corr[u]) / n
	}
	return vec
}

// LoadCost returns costload(t, u) = W_u/mean(W) - 1 given the load vector
// snapshot. A zero mean (fully idle system) yields 0 for every unit.
func LoadCost(loads []float64, u topology.UnitID) float64 {
	var sum float64
	for _, w := range loads {
		sum += w
	}
	if sum <= 0 {
		return 0
	}
	mean := sum / float64(len(loads))
	return loads[u]/mean - 1
}

// DefaultHybridWeight returns the paper's default B = D_inter * d/2 where d
// is the inter-stack mesh diameter: an idle unit may be up to half the
// maximum hop distance further from the data than the best unit.
func DefaultHybridWeight(n *noc.Model) float64 {
	return float64(n.InterHopCycles()) * float64(n.Topology().Diameter()) / 2
}

// HybridWeight returns B = alpha * D_inter, or the default when alpha < 0.
func HybridWeight(n *noc.Model, alpha float64) float64 {
	if alpha < 0 {
		return DefaultHybridWeight(n)
	}
	return alpha * float64(n.InterHopCycles())
}
