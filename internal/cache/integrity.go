package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"care/internal/mem"
)

// ErrBadVictim is latched when a replacement policy returns an
// out-of-range victim way.
var ErrBadVictim = errors.New("cache: policy returned invalid victim way")

// ErrIntegrity is returned by CheckIntegrity when the cache's
// structural invariants do not hold (corrupted tag/set mapping,
// over-committed MSHR file, inconsistent counters).
var ErrIntegrity = errors.New("cache: integrity violation")

// fail latches the first internal invariant violation. The cache
// keeps ticking (so the rest of the system stays analysable) and the
// simulator's run loop surfaces the error.
func (c *Cache) fail(err error) {
	if c.failure == nil {
		c.failure = err
	}
}

// Err returns the first latched internal failure, or nil. The
// simulator polls it every cycle and aborts the run with a structured
// error instead of letting a corrupted cache keep producing numbers.
func (c *Cache) Err() error { return c.failure }

// QueueLen returns the input-queue depth (requests waiting for their
// base access phase or blocked on a full MSHR file), for diagnostics.
func (c *Cache) QueueLen() int { return c.inq.Len() }

// CheckIntegrity verifies the cache's structural invariants: the
// packed tags mirror the blocks, every valid block's tag maps back to
// the set holding it and appears once in it, the MSHR file is within
// capacity with consistent per-core counts, and the hit/miss counters
// partition the access counters. It is the opt-in runtime invariant
// checker's per-cache hook and the chaos tests' oracle, and allocates
// nothing.
func (c *Cache) CheckIntegrity() error {
	if c.failure != nil {
		return c.failure
	}
	if err := c.CheckWake(); err != nil {
		return err
	}
	for set := 0; set < c.Sets; set++ {
		base := set * c.Ways
		for w := 0; w < c.Ways; w++ {
			blk := &c.blocks[base+w]
			var packed uint64
			if blk.Valid {
				packed = blk.Tag<<1 | 1
			}
			if c.tags[base+w] != packed {
				return fmt.Errorf("%w: %s set %d way %d has packed tag %#x, its block gives %#x",
					ErrIntegrity, c.Name, set, w, c.tags[base+w], packed)
			}
			if !blk.Valid {
				continue
			}
			if got := int(blk.Tag & uint64(c.setMask)); got != set {
				return fmt.Errorf("%w: %s set %d way %d holds tag %#x which maps to set %d",
					ErrIntegrity, c.Name, set, w, blk.Tag, got)
			}
			// The earlier ways' packed tags match their blocks, so a
			// duplicate tag shows among them.
			for _, t := range c.tags[base : base+w] {
				if t == packed {
					return fmt.Errorf("%w: %s set %d holds duplicate tag %#x",
						ErrIntegrity, c.Name, set, blk.Tag)
				}
			}
		}
	}
	if c.mshr.Len() > c.mshr.Capacity() {
		return fmt.Errorf("%w: %s MSHR occupancy %d exceeds capacity %d",
			ErrIntegrity, c.Name, c.mshr.Len(), c.mshr.Capacity())
	}
	for i, slot := range c.mshr.live {
		if e := &c.mshr.slab[slot]; int(e.pos) != i || c.mshr.liveBlocks[i] != e.Block {
			return fmt.Errorf("%w: %s MSHR live entry %d (slot %d, block %#x) stores index %d, block list says %#x",
				ErrIntegrity, c.Name, i, slot, e.Block, e.pos, c.mshr.liveBlocks[i])
		}
	}
	clear(c.coreCount)
	for _, slot := range c.mshr.live {
		if core := c.mshr.slab[slot].Core; core >= 0 && core < len(c.coreCount) {
			c.coreCount[core]++
		}
	}
	for core, n := range c.coreCount {
		if got := c.mshr.OutstandingForCore(core); got != n {
			return fmt.Errorf("%w: %s MSHR per-core count for core %d is %d, entries say %d",
				ErrIntegrity, c.Name, core, got, n)
		}
	}
	st := &c.stats
	if st.DemandHits+st.DemandMisses != st.DemandAccesses {
		return fmt.Errorf("%w: %s demand hits %d + misses %d != accesses %d",
			ErrIntegrity, c.Name, st.DemandHits, st.DemandMisses, st.DemandAccesses)
	}
	if st.PrefetchHits+st.PrefetchMisses != st.PrefetchAccesses {
		return fmt.Errorf("%w: %s prefetch hits %d + misses %d != accesses %d",
			ErrIntegrity, c.Name, st.PrefetchHits, st.PrefetchMisses, st.PrefetchAccesses)
	}
	if st.WritebackHits+st.WritebackMisses != st.WritebackAccesses {
		return fmt.Errorf("%w: %s writeback hits %d + misses %d != accesses %d",
			ErrIntegrity, c.Name, st.WritebackHits, st.WritebackMisses, st.WritebackAccesses)
	}
	return nil
}

// CheckWake verifies that the stored wake (NextEvent) is the value
// the queue and park state give, and that the shared bound
// (SetWakeBound) is not above it. It costs O(1); CheckIntegrity runs
// it.
func (c *Cache) CheckWake() error {
	if want := c.headWake(); c.wake != want {
		return fmt.Errorf("%w: %s stores wake %d, its queue head gives %d", ErrIntegrity, c.Name, c.wake, want)
	}
	if c.bound != nil && *c.bound > c.wake {
		return fmt.Errorf("%w: %s wake %d is below the shared bound %d", ErrIntegrity, c.Name, c.wake, *c.bound)
	}
	return nil
}

// FlipTagBit XORs one set-index bit of a resident block's tag — a
// fault-injection hook that models a bit flip in the tag array. It
// returns false when (set, way) does not hold a valid block. The flip
// is constrained to the set-index bits so the corruption is exactly
// what CheckIntegrity's tag/set mapping invariant detects. It runs at
// cycle before the cache's own Tick of that cycle.
func (c *Cache) FlipTagBit(set, way int, bit uint, cycle uint64) bool {
	if set < 0 || set >= c.Sets || way < 0 || way >= c.Ways {
		return false
	}
	blk := &c.blocks[set*c.Ways+way]
	if !blk.Valid {
		return false
	}
	if setBits := uint(bits.OnesCount64(c.setMask)); setBits > 0 {
		bit %= setBits
	} else {
		bit %= 64
	}
	blk.Tag ^= 1 << bit
	c.tags[set*c.Ways+way] = blk.Tag<<1 | 1
	c.countStalls(cycle)
	c.parked = false
	c.setWake()
	return true
}

// SomeValidBlock returns the first (set, way) holding a valid block,
// scanning from set 0, or ok=false for an empty cache. Fault
// injection uses it to pick a deterministic corruption target.
func (c *Cache) SomeValidBlock() (set, way int, ok bool) {
	for i := range c.blocks {
		if c.blocks[i].Valid {
			return i / c.Ways, i % c.Ways, true
		}
	}
	return 0, 0, false
}

// SaturateMSHR permanently claims every free MSHR entry with
// synthetic, never-completing misses — a fault-injection hook that
// models a stuck miss-handling pipeline. The entries target blocks in
// a reserved high address range so they cannot merge with real
// traffic. It returns the number of entries claimed. It runs at cycle
// before the cache's own Tick of that cycle.
func (c *Cache) SaturateMSHR(cycle uint64) int {
	n, claimed := 0, 0
	for !c.mshr.Full() {
		addr := mem.Addr((uint64(0xFA<<40) + uint64(n)) << mem.BlockBits)
		n++
		if c.mshr.Lookup(addr.BlockID()) != nil {
			continue // already claimed by an earlier call
		}
		if _, err := c.allocate(&mem.Request{
			Addr: addr, Core: 0, Kind: mem.Prefetch, IssueCycle: cycle,
		}, cycle); err != nil {
			break
		}
		claimed++
	}
	c.countStalls(cycle)
	c.parked = false
	c.setWake()
	return claimed
}
