package cache

import "care/internal/mem"

// Block is the externally visible metadata of one cache block. It is
// handed to replacement policies on every decision point. Policies
// that need richer per-block state (RRPVs, signatures, EPVs, ...)
// allocate their own side arrays in Init and index them by (set, way).
// It holds only what the cache or a policy reads, bools last, so a
// Block is 32 bytes on a 64-bit host.
type Block struct {
	// Tag is the block number (address >> BlockBits) stored in the way.
	Tag uint64
	// Core is the index of the core whose access filled the block.
	Core int
	// PC is the program counter of the instruction that filled the
	// block (the triggering instruction for prefetch fills).
	PC mem.Addr
	// Valid marks the way as holding data.
	Valid bool
	// Dirty marks modified data that must be written back on eviction.
	Dirty bool
	// Prefetched is set when the block was filled by a prefetch and
	// has not yet been touched by a demand access.
	Prefetched bool
}

// AccessInfo describes the access driving a policy callback.
type AccessInfo struct {
	// PC of the responsible instruction.
	PC mem.Addr
	// Addr is the full access address.
	Addr mem.Addr
	// Core is the issuing core.
	Core int
	// Kind is the access type (load/store/prefetch/writeback).
	Kind mem.Kind
	// PMC is the measured PMC of the completing miss. Only meaningful
	// in OnFill at a level with PMC measurement attached.
	PMC float64
	// MLPCost is the measured MLP-based cost of the completing miss.
	MLPCost float64
	// HitPrefetched reports, on OnHit, that the block being hit is
	// still in prefetched state (first demand touch of a prefetch).
	HitPrefetched bool
}

// Policy is the replacement-policy plug-in interface, modelled on the
// Cache Replacement Championship hooks: victim selection plus update
// callbacks on hit, fill, and eviction.
//
// A portable policy (policy.Policy.Portable) must not read the
// contents of the Blocks it is handed, only the row's length: the
// care/cache library passes one shared row of zero Blocks, and a zero
// evicted Block, because it keeps no per-slot Block state.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Init is called once before use with the cache geometry.
	Init(sets, ways int)
	// Victim picks the way to evict from set to make room for the
	// incoming access. blocks has exactly ways entries. Invalid ways
	// should be preferred by implementations, but the cache fast-paths
	// invalid ways itself, so Victim only sees full sets in practice.
	Victim(set int, blocks []Block, info AccessInfo) int
	// OnHit is invoked after a hit to (set, way).
	OnHit(set, way int, blocks []Block, info AccessInfo)
	// OnFill is invoked after a new block is installed in (set, way).
	OnFill(set, way int, blocks []Block, info AccessInfo)
	// OnEvict is invoked just before a valid block is overwritten.
	// evicted is a copy of the outgoing block's metadata.
	OnEvict(set, way int, evicted Block, info AccessInfo)
}

// Prefetcher is the hardware-prefetcher plug-in interface. A cache
// calls OnAccess for every demand access it observes and issues the
// returned block-aligned addresses as prefetch requests into itself.
type Prefetcher interface {
	// Name identifies the prefetcher in reports.
	Name() string
	// OnAccess observes a demand access and returns the addresses to
	// prefetch (block aligned, may be empty) appended to buf. The
	// cache passes a reusable buffer (sliced to length 0) so the
	// steady-state access path allocates nothing; implementations
	// must append rather than build a fresh slice.
	OnAccess(pc, addr mem.Addr, hit bool, buf []mem.Addr) []mem.Addr
}
