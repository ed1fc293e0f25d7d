package cache

import (
	"encoding/gob"
	"fmt"

	"care/internal/checkpoint"
)

func init() { gob.Register(State{}) }

// State is a cache's checkpointable state at a quiescent point (empty
// input queue and MSHR file). It embeds the attached replacement
// policy's and prefetcher's snapshots so one frame restores the whole
// level.
type State struct {
	Sets      [][]Block
	Stats     Stats
	NextReqID uint64
	// Policy and Prefetcher hold the component snapshots, nil when the
	// component is stateless or absent.
	Policy     any
	Prefetcher any
}

// Checkpointable reports whether the cache can participate in a
// checkpoint: it must be drained, failure-free, and its policy and
// prefetcher must either implement checkpoint.Snapshotter or be
// stateless. The error wraps checkpoint.ErrNotCheckpointable.
func (c *Cache) Checkpointable() error {
	if !c.Drained() {
		return fmt.Errorf("%w: cache %s not drained (queue %d, MSHR %d)",
			checkpoint.ErrNotCheckpointable, c.Name, c.inq.Len(), c.mshr.Len())
	}
	if c.failure != nil {
		return fmt.Errorf("%w: cache %s latched failure: %v",
			checkpoint.ErrNotCheckpointable, c.Name, c.failure)
	}
	if _, ok := c.policy.(checkpoint.Snapshotter); !ok {
		return fmt.Errorf("%w: cache %s policy %s has no Snapshot/Restore",
			checkpoint.ErrNotCheckpointable, c.Name, c.policy.Name())
	}
	if c.prefetcher != nil {
		if _, ok := c.prefetcher.(checkpoint.Snapshotter); !ok {
			return fmt.Errorf("%w: cache %s prefetcher has no Snapshot/Restore",
				checkpoint.ErrNotCheckpointable, c.Name)
		}
	}
	return nil
}

// Snapshot implements checkpoint.Snapshotter. The cache must be
// drained (the simulator quiesces the system first and verifies with
// Checkpointable).
func (c *Cache) Snapshot() any {
	st := State{
		Sets:      make([][]Block, len(c.sets)),
		Stats:     c.stats,
		NextReqID: c.nextReqID,
	}
	for i, set := range c.sets {
		st.Sets[i] = append([]Block(nil), set...)
	}
	st.Stats.PerCoreDemandAccesses = append([]uint64(nil), c.stats.PerCoreDemandAccesses...)
	st.Stats.PerCoreDemandMisses = append([]uint64(nil), c.stats.PerCoreDemandMisses...)
	if s, ok := c.policy.(checkpoint.Snapshotter); ok {
		st.Policy = s.Snapshot()
	}
	if s, ok := c.prefetcher.(checkpoint.Snapshotter); ok {
		st.Prefetcher = s.Snapshot()
	}
	return st
}

// Restore implements checkpoint.Snapshotter on an identically
// configured, freshly constructed cache.
func (c *Cache) Restore(snap any) error {
	st, err := checkpoint.As[State](snap, "cache "+c.Name)
	if err != nil {
		return err
	}
	if len(st.Sets) != c.Sets {
		return checkpoint.Mismatchf("cache %s: snapshot has %d sets, cache has %d", c.Name, len(st.Sets), c.Sets)
	}
	for i, set := range st.Sets {
		if len(set) != c.Ways {
			return checkpoint.Mismatchf("cache %s: snapshot set %d has %d ways, cache has %d", c.Name, i, len(set), c.Ways)
		}
		copy(c.sets[i], set)
		for w, blk := range set {
			if blk.Valid {
				c.tags[i*c.Ways+w] = blk.Tag<<1 | 1
			} else {
				c.tags[i*c.Ways+w] = 0
			}
		}
	}
	if len(st.Stats.PerCoreDemandAccesses) != c.Cores || len(st.Stats.PerCoreDemandMisses) != c.Cores {
		return checkpoint.Mismatchf("cache %s: snapshot per-core stats sized for %d cores, cache has %d",
			c.Name, len(st.Stats.PerCoreDemandAccesses), c.Cores)
	}
	c.stats = st.Stats
	c.stats.PerCoreDemandAccesses = append([]uint64(nil), st.Stats.PerCoreDemandAccesses...)
	c.stats.PerCoreDemandMisses = append([]uint64(nil), st.Stats.PerCoreDemandMisses...)
	c.nextReqID = st.NextReqID
	c.parked = false
	if st.Policy != nil {
		s, ok := c.policy.(checkpoint.Snapshotter)
		if !ok {
			return checkpoint.Mismatchf("cache %s: snapshot carries policy state but policy %s cannot restore",
				c.Name, c.policy.Name())
		}
		if err := s.Restore(st.Policy); err != nil {
			return fmt.Errorf("cache %s: policy %s: %w", c.Name, c.policy.Name(), err)
		}
	}
	if st.Prefetcher != nil {
		s, ok := c.prefetcher.(checkpoint.Snapshotter)
		if !ok {
			return checkpoint.Mismatchf("cache %s: snapshot carries prefetcher state but none is attached", c.Name)
		}
		if err := s.Restore(st.Prefetcher); err != nil {
			return fmt.Errorf("cache %s: prefetcher: %w", c.Name, err)
		}
	}
	return nil
}
