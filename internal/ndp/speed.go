package ndp

import (
	"abndp/internal/ckpt"
	"abndp/internal/task"
)

// SetCheckpoint attaches a checkpoint-store shard (internal/ckpt) as the
// scheduler's precomputed costmem source: placement decisions reuse stored
// vectors on hit and memoize fresh ones on miss, so later runs sharing the
// same prefix key (config.PrefixKey) skip the placement cost kernel
// entirely. Call before Run, with the shard for "app|design|PrefixKey" —
// shards mix-in the app (hints) and design (camp awareness), which the
// prefix key alone does not pin.
//
// Attaching a shard never changes simulation output: stored vectors are
// bit-identical to the kernel's (core.MemCostVec), lookups verify the
// full hint line list, and the scheduler bypasses the source whenever a
// fault plan installs a dead-unit mask. Passing nil detaches.
func (s *System) SetCheckpoint(sh *ckpt.Shard) {
	s.ckptShard = sh
	if sh == nil {
		s.Sched.SetCostVecSource(nil)
		return
	}
	s.Sched.SetCostVecSource(s.costVecFor)
}

// Checkpoint returns the attached shard, or nil.
func (s *System) Checkpoint() *ckpt.Shard { return s.ckptShard }

// costVecFor is the scheduler's cost-vector source: store hit, else compute
// with the kernel and memoize. The scheduler only calls it with no dead
// mask in force, when costmem is a pure function of the hint. The shard
// copies what it keeps — the kernel's vector is scratch, and t's hint
// lines are recycled across barriers.
func (s *System) costVecFor(t *task.Task) []float64 {
	lines := t.Hint.Lines
	h := ckpt.HashLines(lines)
	if v := s.ckptShard.MemVec(h, lines); v != nil {
		return v
	}
	v := s.Cost.MemCostVec(lines)
	s.ckptShard.PutMemVec(h, lines, v)
	return v
}
