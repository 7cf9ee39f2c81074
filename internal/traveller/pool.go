package traveller

import (
	"sync"

	"abndp/internal/mem"
)

// One cache's tag arrays are sets*ways entries of line, epoch, and (under
// LRU) recency state — close to 200 MB per System on the default
// configuration, and allocating plus zeroing them dominates System
// construction.
// Every ndp.System.Run releases its caches' arrays into a per-geometry
// pool as it returns, so the next System of the same shape in the process
// reuses them instead of allocating.
//
// Correctness never depends on recycled contents: validity is epoch-gated,
// so a recycled array is indistinguishable from what InvalidateAll leaves
// behind — stale lines of invalid entries are never read, and stale
// recency ranks stay in [0, ways) because the pool is keyed by geometry.
// The pool is a sync.Pool, so the garbage collector may drop idle arrays;
// the next cache then allocates fresh ones.

// geometry keys a pool: arrays are only reused by a cache of the same
// shape, which is what keeps stale recency ranks in range for the audit.
type geometry struct {
	sets, ways int
	lru        bool
}

// tagArrays is one recyclable set of tag state. cur is the highest epoch
// the arrays have seen, so the next owner can start one past it.
type tagArrays struct {
	lines []mem.Line
	epoch []uint32
	lru   []int8
	cur   uint32
}

var pools sync.Map // geometry -> *sync.Pool of *tagArrays

func poolFor(g geometry) *sync.Pool {
	if p, ok := pools.Load(g); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(g, &sync.Pool{})
	return p.(*sync.Pool)
}

// acquire hands out tag arrays for the given geometry: recycled ones when a
// Release has stocked the pool (advancing the epoch so every stale entry
// reads invalid), fresh zeroed allocations otherwise.
func acquire(sets, ways int, useLRU bool) *tagArrays {
	if v := poolFor(geometry{sets, ways, useLRU}).Get(); v != nil {
		t := v.(*tagArrays)
		t.cur++
		if t.cur == 0 { // epoch wrapped: only now do stale stamps need clearing
			for i := range t.epoch {
				t.epoch[i] = 0
			}
			t.cur = 1
		}
		return t
	}
	t := &tagArrays{
		lines: make([]mem.Line, sets*ways),
		epoch: make([]uint32, sets*ways),
		cur:   1, // a zeroed epoch array means "nothing valid" only while cur != 0
	}
	if useLRU {
		t.lru = make([]int8, sets*ways)
	}
	return t
}

// Release returns the cache's tag arrays to the geometry pool for the next
// same-shaped Cache to reuse, and permanently disables the cache (a probe
// after Release counts as a dead probe, like a killed unit's). ndp.System
// releases every cache at the end of Run.
func (c *Cache) Release() {
	if c.lines == nil {
		return
	}
	t := &tagArrays{lines: c.lines, epoch: c.epoch, lru: c.lru, cur: c.cur}
	c.lines, c.epoch, c.lru = nil, nil, nil
	c.disabled = true
	poolFor(geometry{c.sets, c.ways, c.useLRU}).Put(t)
}

// DrainPool empties every geometry pool so the next Cache allocates fresh
// arrays. The warm-sweep measurement calls it before its cold baseline
// loop, so the first cold point pays full allocation cost; tests use it
// for isolation.
func DrainPool() {
	pools.Range(func(k, _ any) bool {
		pools.Delete(k)
		return true
	})
}
