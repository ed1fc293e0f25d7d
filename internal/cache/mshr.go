package cache

import (
	"errors"

	"care/internal/mem"
)

// ErrMSHRFull is returned by Allocate when the MSHR file has no free
// entry. The cache checks Full before allocating, so seeing this
// error escape means the caller's admission control is broken (or a
// fault was injected); silently over-committing hardware structures
// would invalidate the timing model.
var ErrMSHRFull = errors.New("cache: MSHR allocation while full")

// ErrMSHRDuplicate is returned by Allocate when an entry for the
// block is already outstanding; the caller should have merged into it.
var ErrMSHRDuplicate = errors.New("cache: duplicate MSHR allocation")

// MSHREntry tracks one outstanding miss in a Miss Status Holding
// Register file. The concurrency metrics (PMC, MLP-based cost) are
// kept on the entry by the attached Tracker, as the paper adds a PMC
// field to each MSHR entry (§IV-B).
type MSHREntry struct {
	// Core is the core whose access allocated the entry. Merged
	// requesters from other cores do not re-attribute the entry; the
	// paper tracks concurrency per allocating core.
	Core int
	// PMC accumulates the pure miss contribution in cycles.
	PMC float64
	// MLPCost accumulates the MLP-based cost in cycles.
	MLPCost float64
	// PureCycles counts the active pure miss cycles this entry
	// participated in; the miss is a "pure miss" iff PureCycles > 0.
	PureCycles uint64
	// HitOverlapped is set when at least one of this entry's miss
	// access cycles overlapped a base access cycle from the same core
	// (the hit-miss overlapping of Figure 3).
	HitOverlapped bool
	// Marks belongs to the one bulk tracker that derives the metrics
	// above from running sums (the PML): the sums it recorded when the
	// entry was allocated. Allocate clears it.
	Marks [4]uint64

	// Block is the missing block number.
	Block uint64
	// Kind is the strongest access kind among the requesters: a
	// demand access upgrades a prefetch-allocated entry.
	Kind mem.Kind
	// PC is the program counter of the allocating access.
	PC mem.Addr

	waiters []*mem.Request
	slot    uint32 // index of this entry in the file's slab
	pos     uint32 // index of this entry in the file's live list
}

// Slot returns the entry's stable slab index; the cache uses it as
// the completion tag on the request it sends to the lower level.
func (e *MSHREntry) Slot() uint32 { return e.slot }

// MSHR is a bounded miss status holding register file. Entries live
// in a fixed slab (stable pointers, stable slot indices) with a dense
// slot list walked by the trackers and a parallel packed block-number
// list scanned on lookup — with at most a few dozen entries, a linear
// scan of 8-byte block numbers beats hashing.
// Each entry stores its index in the live list, so release
// swap-removes it without a search. Allocation and release recycle
// slab slots through a free list, so the steady state allocates
// nothing.
type MSHR struct {
	capacity int
	slab     []MSHREntry
	free     []uint32 // recycled slots, LIFO
	live     []uint32 // allocated slots in tracker-iteration order
	// liveBlocks[i] is the block number of entry live[i]; kept in
	// lockstep with live (append on allocate, swap-remove on release).
	liveBlocks []uint64
	perCore    []int // outstanding entries per core
}

// NewMSHR creates an MSHR file with the given entry capacity serving
// cores cores.
func NewMSHR(capacity, cores int) *MSHR {
	m := &MSHR{
		capacity:   capacity,
		slab:       make([]MSHREntry, capacity),
		free:       make([]uint32, 0, capacity),
		live:       make([]uint32, 0, capacity),
		liveBlocks: make([]uint64, 0, capacity),
		perCore:    make([]int, cores),
	}
	for i := capacity - 1; i >= 0; i-- {
		m.slab[i].slot = uint32(i)
		m.free = append(m.free, uint32(i))
	}
	return m
}

// Capacity returns the total number of entries.
func (m *MSHR) Capacity() int { return m.capacity }

// Len returns the number of allocated entries.
func (m *MSHR) Len() int { return len(m.live) }

// Full reports whether a new allocation would fail.
func (m *MSHR) Full() bool { return len(m.live) >= m.capacity }

// Lookup returns the outstanding entry for block, or nil.
func (m *MSHR) Lookup(block uint64) *MSHREntry {
	for i, b := range m.liveBlocks {
		if b == block {
			return &m.slab[m.live[i]]
		}
	}
	return nil
}

// At returns the entry occupying slab slot tag. The caller must know
// the slot is allocated (it is the completion tag of an in-flight
// fetch).
func (m *MSHR) At(tag uint32) *MSHREntry { return &m.slab[tag] }

// Allocate creates an entry for req's block. The caller must check
// Full and Lookup first; Allocate returns ErrMSHRFull or
// ErrMSHRDuplicate on those programming errors instead of silently
// over-committing the hardware structure.
func (m *MSHR) Allocate(req *mem.Request) (*MSHREntry, error) {
	block := req.Addr.BlockID()
	if m.Full() {
		return nil, ErrMSHRFull
	}
	if m.Lookup(block) != nil {
		return nil, ErrMSHRDuplicate
	}
	slot := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	// Reset in place, keeping the slot and the waiters' backing array:
	// assigning a composite literal would copy the whole entry.
	e := &m.slab[slot]
	e.Core = req.Core
	e.PMC, e.MLPCost = 0, 0
	e.PureCycles = 0
	e.HitOverlapped = false
	e.Marks = [4]uint64{}
	e.Block = block
	e.Kind = req.Kind
	e.PC = req.PC
	e.waiters = e.waiters[:0]
	if req.HasDone() {
		e.waiters = append(e.waiters, req)
	}
	e.pos = uint32(len(m.live))
	m.live = append(m.live, slot)
	m.liveBlocks = append(m.liveBlocks, block)
	if e.Core >= 0 && e.Core < len(m.perCore) {
		m.perCore[e.Core]++
	}
	return e, nil
}

// Merge adds req as an additional waiter on an outstanding entry. A
// demand requester upgrades a prefetch-allocated entry's kind so the
// fill is treated as demand-critical.
func (m *MSHR) Merge(e *MSHREntry, req *mem.Request) {
	if req.Kind.IsDemand() && e.Kind == mem.Prefetch {
		e.Kind = req.Kind
	}
	if req.HasDone() {
		e.waiters = append(e.waiters, req)
	}
}

// Release removes the entry and returns its waiters for response.
// The slab slot returns to the free list immediately; the entry's
// fields and the returned waiter slice stay readable until the next
// Allocate reuses the slot, which cannot happen synchronously — a
// completing fill only ever enqueues new accesses into the cache's
// input queue, it never allocates on the same MSHR re-entrantly.
func (m *MSHR) Release(e *MSHREntry) []*mem.Request {
	// The last live entry moves into the released one's place, the
	// order a scan for the slot and a swap-remove give.
	if i := int(e.pos); i < len(m.live) && m.live[i] == e.slot {
		last := len(m.live) - 1
		moved := m.live[last]
		m.live[i] = moved
		m.slab[moved].pos = uint32(i)
		m.live = m.live[:last]
		m.liveBlocks[i] = m.liveBlocks[last]
		m.liveBlocks = m.liveBlocks[:last]
	}
	if e.Core >= 0 && e.Core < len(m.perCore) {
		m.perCore[e.Core]--
	}
	m.free = append(m.free, e.slot)
	return e.waiters
}

// OutstandingForCore returns N_x: the number of outstanding miss
// entries allocated by core x. This is the divisor in the paper's
// Algorithm 1 and in the MLP-based cost of Qureshi et al.
func (m *MSHR) OutstandingForCore(core int) int {
	if core < 0 || core >= len(m.perCore) {
		return 0
	}
	return m.perCore[core]
}

// ForEach invokes fn on every outstanding entry. Iteration order is
// unspecified; callers must not depend on it (metric updates are
// commutative).
func (m *MSHR) ForEach(fn func(*MSHREntry)) {
	for _, slot := range m.live {
		fn(&m.slab[slot])
	}
}

// Entries exposes the entry slab and the live slot list for trackers
// that walk every outstanding miss (fused iteration avoids a closure
// call per entry).
// Callers must treat both slices as read-only structure: they may
// update the metric fields and Marks of slab[slot] for live slots but
// must not append, reorder, or retain either slice.
func (m *MSHR) Entries() (slab []MSHREntry, live []uint32) {
	return m.slab, m.live
}
