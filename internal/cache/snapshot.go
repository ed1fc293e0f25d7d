package cache

import (
	"fmt"

	"care/internal/checkpoint"
)

// Checkpointable reports whether the cache can participate in a
// checkpoint: it must be drained, failure-free, and its policy and
// prefetcher must implement checkpoint.Component. The error wraps
// checkpoint.ErrNotCheckpointable.
func (c *Cache) Checkpointable() error {
	if !c.Drained() {
		return fmt.Errorf("%w: cache %s not drained (queue %d, MSHR %d)",
			checkpoint.ErrNotCheckpointable, c.Name, c.inq.Len(), c.mshr.Len())
	}
	if c.failure != nil {
		return fmt.Errorf("%w: cache %s latched failure: %v",
			checkpoint.ErrNotCheckpointable, c.Name, c.failure)
	}
	if _, ok := c.policy.(checkpoint.Component); !ok {
		return fmt.Errorf("%w: cache %s policy %s has no Checkpoint",
			checkpoint.ErrNotCheckpointable, c.Name, c.policy.Name())
	}
	if c.prefetcher != nil {
		if _, ok := c.prefetcher.(checkpoint.Component); !ok {
			return fmt.Errorf("%w: cache %s prefetcher %s has no Checkpoint",
				checkpoint.ErrNotCheckpointable, c.Name, c.prefetcher.Name())
		}
	}
	return nil
}

// Checkpoint implements checkpoint.Component. The cache must be
// drained (the simulator quiesces the system first and verifies with
// Checkpointable). One frame carries the whole level: blocks, stats,
// and the attached policy's and prefetcher's state.
func (c *Cache) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, c.blocks, c.Ways, walkBlocks)
	checkpoint.Plain(s, &c.stats)
	if s.Restoring() && s.Err() == nil &&
		(len(c.stats.PerCoreDemandAccesses) != c.Cores || len(c.stats.PerCoreDemandMisses) != c.Cores) {
		s.Fail(checkpoint.Mismatchf("cache %s: per-core stats sized for %d cores, cache has %d",
			c.Name, len(c.stats.PerCoreDemandAccesses), c.Cores))
	}
	checkpoint.Uint(s, &c.nextReqID)
	walkPart(s, c.policy)
	pf := ""
	if c.prefetcher != nil {
		pf = c.prefetcher.Name()
	}
	s.Match(pf)
	if c.prefetcher != nil {
		walkPart(s, c.prefetcher)
	}
	if s.Restoring() && s.Err() == nil {
		for i, blk := range c.blocks {
			c.tags[i] = 0
			if blk.Valid {
				c.tags[i] = blk.Tag<<1 | 1
			}
		}
		c.parked = false
		c.setWake()
	}
}

// walkBlocks walks a set's blocks, each field by field in declaration
// order: the bytes checkpoint.Plain stores for a block, without its
// reflection (TestBlockWalk holds the two equal).
func walkBlocks(s *checkpoint.State, set []block) {
	for i := range set {
		b := &set[i]
		checkpoint.Uint(s, &b.Tag)
		checkpoint.Int(s, &b.Core)
		checkpoint.Uint(s, &b.PC)
		s.Bool(&b.Valid)
		s.Bool(&b.Dirty)
		s.Bool(&b.Prefetched)
	}
}

// walkPart walks an attached policy or prefetcher.
func walkPart(s *checkpoint.State, part any) {
	if comp, ok := part.(checkpoint.Component); ok {
		comp.Checkpoint(s)
		return
	}
	s.Fail(fmt.Errorf("%w: %T has no Checkpoint", checkpoint.ErrNotCheckpointable, part))
}
