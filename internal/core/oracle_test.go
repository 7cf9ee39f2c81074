package core

import (
	"abndp/internal/mem"
	"abndp/internal/topology"
)

// The per-unit reference implementation of costmem (Eq. 2). MemCostVec is
// tested bit for bit against it; it evaluates one unit at a time, directly
// on noc.Latency, with no stack-level shortcut.

// Candidates resolves each line to its possible data locations, reusing
// the two provided buffers. The returned outer slice aliases outer. When
// not camp-aware each line has exactly one candidate (its home).
func (c *CostModel) Candidates(lines []mem.Line, flat []topology.UnitID, outer [][]topology.UnitID) ([]topology.UnitID, [][]topology.UnitID) {
	flat = flat[:0]
	outer = outer[:0]
	for _, l := range lines {
		start := len(flat)
		if c.campAware {
			flat = c.camps.AppendLocations(flat, l)
		} else {
			flat = append(flat, c.camps.Home(l))
		}
		outer = append(outer, flat[start:len(flat):len(flat)])
	}
	return flat, outer
}

// MemCost returns costmem(t, u) in cycles for a task whose accessed lines
// have the given candidate location sets (from Candidates). The first
// candidate of each line is its home; the rest are camps and carry the camp
// penalty. Dead camps hold no data and are skipped.
func (c *CostModel) MemCost(cands [][]topology.UnitID, u topology.UnitID) float64 {
	if len(cands) == 0 {
		return 0
	}
	var sum int64
	for _, locs := range cands {
		best := c.noc.Latency(u, locs[0])
		for _, loc := range locs[1:] {
			if c.dead != nil && c.dead[loc] {
				continue
			}
			if lat := c.noc.Latency(u, loc) + c.campPenalty; lat < best {
				best = lat
			}
		}
		sum += best
	}
	return float64(sum) / float64(len(cands))
}

// MemCostLines is the convenience form of MemCost.
func (c *CostModel) MemCostLines(lines []mem.Line, u topology.UnitID) float64 {
	_, cands := c.Candidates(lines, nil, nil)
	return c.MemCost(cands, u)
}
