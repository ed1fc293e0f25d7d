package cache

import "care/internal/mem"

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
// callbacks on hit, fill, and eviction. A policy keeps the per-block
// state it needs (RRPVs, signatures, EPVs, ...) in its own tables,
// sized in Init and indexed by (set, way).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Init is called once before use with the cache geometry.
	Init(sets, ways int)
	// Victim picks the way of set to evict to make room for the
	// incoming access. The cache fast-paths invalid ways itself, so
	// Victim only sees full sets.
	Victim(set int, info AccessInfo) int
	// OnHit is invoked after a hit to (set, way).
	OnHit(set, way int, info AccessInfo)
	// OnFill is invoked after a new block is installed in (set, way).
	OnFill(set, way int, info AccessInfo)
	// OnEvict is invoked just before the valid block in (set, way) is
	// overwritten.
	OnEvict(set, way int, info AccessInfo)
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
