// Package cache implements the non-blocking, set-associative caches
// of the simulated memory hierarchy: tag arrays, MSHR files,
// writeback handling, prefetcher hooks, and the replacement-policy
// plug-in interface.
//
// The timing model follows the C-AMAT decomposition the paper builds
// on: every access (hit or miss) spends the cache's base access
// cycles (tag lookup), and misses additionally wait for the lower
// level. Caches are cycle-stepped via Tick and deliver responses
// through per-request callbacks, so a multi-level hierarchy is wired
// purely through the Level interface.
package cache

import (
	"errors"
	"fmt"
	"math"

	"care/internal/mem"
	"care/internal/ring"
)

// Level is anything that can accept a memory request: a lower cache
// level or the DRAM model.
type Level interface {
	// Access submits a request at the given cycle. The request's
	// completion route (Owner/Tag) fires
	// when data is available. Ownership of req transfers to the level:
	// it releases the request to its pool once fully consumed.
	Access(req *mem.Request, cycle uint64)
}

// Tracker observes a cache cycle by cycle. Tick runs on every cycle
// the simulator steps, since a cache with one attached is ticked on
// each (see Due). Cycles the simulator skips are not ticked: in them
// no access starts and the MSHR file does not change.
type Tracker interface {
	// OnAccessStart is told that an access from core begins its base
	// access phase at cycle (the phase lasts the cache's latency).
	OnAccessStart(core int, kind mem.Kind, cycle uint64)
	// Tick runs once per stepped cycle with the cache's MSHR file.
	Tick(cycle uint64, m *MSHR)
	// OnMissComplete is invoked when an outstanding miss is served,
	// before the block is installed.
	OnMissComplete(e *MSHREntry, cycle uint64)
}

// BulkTracker computes per-core concurrency metrics (PMC, MLP-based
// cost) without being ticked. It keeps a clock per core and accounts a
// core's cycles in bulk, up to the cache's clock, only when the cache
// is about to change something that core can see: an access of the
// core starts its base phase, or a miss of the core is allocated or
// completed. Between those events the core's state can only change
// where one of its own base phases ends, which the tracker knows. The
// paper attaches its PMC measurement logic (PML) to the LLC as one
// (pmc.Logic). An entry's metrics are final once OnMissComplete has
// returned; readers of in-flight entries or of the tracker's counters
// call the cache's SyncTrackers first.
type BulkTracker interface {
	// CatchUp accounts core's cycles from its clock up to clock
	// (exclusive) with the MSHR file as it stands. The cache calls it
	// before every change that core can see.
	CatchUp(core int, clock uint64, m *MSHR)
	// OnAccessStart is Tracker's, called right after CatchUp.
	OnAccessStart(core int, kind mem.Kind, cycle uint64)
	// OnMissAlloc is told of a new entry right after CatchUp of its
	// core, so the entry counts from that core's clock.
	OnMissAlloc(e *MSHREntry)
	// OnMissComplete is Tracker's, called right after CatchUp and
	// before the entry is released.
	OnMissComplete(e *MSHREntry, cycle uint64)
	// Sync catches every core up to clock and brings the metrics of
	// every outstanding entry of m current.
	Sync(clock uint64, m *MSHR)
	// SetClock moves every core's clock to clock without accounting
	// anything, for a restored system.
	SetClock(clock uint64)
}

// Params is the geometry and timing of one cache.
type Params struct {
	// Name identifies the cache in stats output ("L1D-0", "LLC", ...).
	Name string
	// Sets and Ways define the organisation; Sets must be a power of
	// two.
	Sets, Ways int
	// Latency is the base access (tag lookup) latency in cycles.
	Latency uint64
	// MSHREntries bounds the number of outstanding misses.
	MSHREntries int
	// Cores is the number of cores that can reach this cache (1 for
	// private levels).
	Cores int
}

// SizeBytes returns the data capacity of the cache.
func (p Params) SizeBytes() int { return p.Sets * p.Ways * mem.BlockSize }

// ErrGeometry marks a cache geometry New refuses.
var ErrGeometry = errors.New("cache: invalid geometry")

// Validate returns an error wrapping ErrGeometry for a geometry New
// would refuse: a set count that is not a positive power of two, or a
// way or MSHR count that is not positive.
func (p Params) Validate() error {
	switch {
	case p.Sets <= 0 || p.Sets&(p.Sets-1) != 0:
		return fmt.Errorf("%w: cache %s: sets must be a positive power of two, got %d", ErrGeometry, p.Name, p.Sets)
	case p.Ways <= 0:
		return fmt.Errorf("%w: cache %s: ways must be positive, got %d", ErrGeometry, p.Name, p.Ways)
	case p.MSHREntries <= 0:
		return fmt.Errorf("%w: cache %s: MSHR entries must be positive, got %d", ErrGeometry, p.Name, p.MSHREntries)
	}
	return nil
}

// Stats aggregates a cache's activity counters.
type Stats struct {
	// Demand (load/store) traffic.
	DemandAccesses, DemandHits, DemandMisses uint64
	// Prefetch traffic.
	PrefetchAccesses, PrefetchHits, PrefetchMisses uint64
	// Writeback traffic from the level above.
	WritebackAccesses, WritebackHits, WritebackMisses uint64
	// MSHRMerges counts accesses absorbed by an outstanding miss.
	MSHRMerges uint64
	// MSHRStallCycles counts cycles the input queue was blocked by a
	// full MSHR file.
	MSHRStallCycles uint64
	// PrefetchesDropped counts prefetches discarded for MSHR headroom.
	PrefetchesDropped uint64
	// Invalidations is always 0: the hierarchy is non-inclusive and
	// never back-invalidates. It keeps the Result JSON shape stable.
	Invalidations uint64
	// Fills and Evictions count block installs and displacements.
	Fills, Evictions uint64
	// WritebacksIssued counts dirty evictions sent to the next level.
	WritebacksIssued uint64
	// PureMisses counts completed misses with at least one pure miss
	// cycle (only meaningful when a PMC tracker is attached).
	PureMisses uint64
	// HitOverlapMisses counts completed misses whose miss phase
	// overlapped base access cycles from the same core (Figure 3).
	HitOverlapMisses uint64
	// PMCSum accumulates the PMC of completed misses, for averages.
	PMCSum float64
	// PerCoreDemandAccesses and PerCoreDemandMisses break demand
	// traffic down by issuing core (MPKI, weighted speedup inputs).
	PerCoreDemandAccesses, PerCoreDemandMisses []uint64
}

// Accesses returns total demand+prefetch accesses (the pMR
// denominator; writebacks are background traffic and excluded, per
// the paper's treatment of writebacks as non-demand requests).
func (s *Stats) Accesses() uint64 { return s.DemandAccesses + s.PrefetchAccesses }

// Hits returns total demand+prefetch hits (the Accesses complement of
// Misses; writeback hits are background traffic and excluded).
func (s *Stats) Hits() uint64 { return s.DemandHits + s.PrefetchHits }

// Misses returns total demand+prefetch misses.
func (s *Stats) Misses() uint64 { return s.DemandMisses + s.PrefetchMisses }

// MissRate returns misses/accesses over demand+prefetch traffic.
func (s *Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses()) / float64(a)
	}
	return 0
}

// PureMissRate returns the paper's pMR: pure misses / total accesses.
func (s *Stats) PureMissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.PureMisses) / float64(a)
	}
	return 0
}

// MeanPMC returns the average PMC per completed miss.
func (s *Stats) MeanPMC() float64 {
	if m := s.Misses(); m > 0 {
		return s.PMCSum / float64(m)
	}
	return 0
}

// block is the cache's metadata of one way. It holds only what the
// cache reads, bools last, so a block is 32 bytes on a 64-bit host.
type block struct {
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

type queued struct {
	req   *mem.Request
	ready uint64
}

// Cache is one level of the simulated hierarchy.
type Cache struct {
	Params
	policy     Policy
	prefetcher Prefetcher
	lower      Level
	mshr       *MSHR
	// blocks holds every way, set by set: way w of set s is
	// blocks[s*Ways+w].
	blocks []block
	// tags mirrors blocks as a flat packed array (tag<<1|1 when valid,
	// 0 when not): probing scans 8 bytes per way instead of a full
	// block, cutting the tag-match loop's cache footprint ~10×. It is
	// updated wherever Valid/Tag change: installBlock, FlipTagBit and
	// checkpoint restore; CheckIntegrity compares the two.
	tags     []uint64
	inq      ring.Ring[queued]
	trackers []Tracker
	bulk     []BulkTracker
	// clock is the first cycle the trackers have not seen: Tick(cycle)
	// sets it to cycle+1 as it starts, SkipCycles to its argument.
	// Bulk trackers are caught up to it before every change, so a
	// cache with bulk trackers (the LLC) must have it kept exact every
	// cycle, ticked or not.
	clock   uint64
	stats   Stats
	failure error
	// parked is set when the queue head failed its lookup on a full
	// MSHR file. The outcome cannot change until an MSHR entry is
	// released (fill) or allocated (SaturateMSHR), a tag is flipped
	// (FlipTagBit), or the cache is restored, and each of those clears
	// it; until then the cache need not be ticked, and its stalls are
	// counted lazily.
	parked bool
	// parkedAt is, while parked, the first cycle whose stall is not yet
	// in MSHRStallCycles; countStalls moves it.
	parkedAt uint64
	// wake is what NextEvent returns: the ready cycle of an un-parked
	// queue head, or math.MaxUint64. setWake recomputes it wherever it
	// can move.
	wake uint64
	// bound, when set (SetWakeBound), is a lower bound on the wake of
	// every cache sharing it. setWake lowers it, so it never runs late.
	bound *uint64

	// pool recycles the requests this cache issues (fetches to the
	// lower level, writebacks, self-prefetches).
	pool mem.RequestPool
	// pfBuf is the reusable buffer handed to the prefetcher.
	pfBuf []mem.Addr
	// coreCount is CheckIntegrity's reusable tally of MSHR entries per
	// core.
	coreCount []int

	setMask uint64
	// pfDropAt is the MSHR occupancy at which prefetches are dropped
	// to preserve demand headroom (precomputed from MSHREntries).
	pfDropAt  int
	nextReqID uint64
}

// New builds a cache with the given geometry and replacement policy;
// it panics on a geometry Validate refuses. The lower level is
// attached with SetLower before simulation starts.
func New(p Params, policy Policy) *Cache {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.Cores <= 0 {
		p.Cores = 1
	}
	c := &Cache{
		Params:    p,
		policy:    policy,
		mshr:      NewMSHR(p.MSHREntries, p.Cores),
		blocks:    make([]block, p.Sets*p.Ways),
		tags:      make([]uint64, p.Sets*p.Ways),
		coreCount: make([]int, p.Cores),
		wake:      math.MaxUint64,
	}
	c.setMask = uint64(p.Sets - 1)
	c.pfDropAt = p.MSHREntries - p.MSHREntries/4
	policy.Init(p.Sets, p.Ways)
	c.stats.PerCoreDemandAccesses = make([]uint64, p.Cores)
	c.stats.PerCoreDemandMisses = make([]uint64, p.Cores)
	return c
}

// SetLower attaches the next level of the hierarchy.
func (c *Cache) SetLower(l Level) { c.lower = l }

// SetPrefetcher attaches a hardware prefetcher that injects requests
// into this cache.
func (c *Cache) SetPrefetcher(p Prefetcher) { c.prefetcher = p }

// AddTracker attaches a tracker that is ticked every stepped cycle.
func (c *Cache) AddTracker(t Tracker) { c.trackers = append(c.trackers, t) }

// SetWakeBound points the cache at a lower bound on the wake cycles of
// a set of caches (the simulator's): whenever the cache's NextEvent
// falls below *b, the cache lowers *b to it. The owner may raise *b
// only to a value it has checked against every cache's NextEvent.
func (c *Cache) SetWakeBound(b *uint64) {
	c.bound = b
	c.setWake()
}

// setWake recomputes wake from the queue and park state and lowers the
// shared bound to it. Every path that can move NextEvent calls it:
// Access into an empty queue, the end of an un-parked Tick, fill's
// un-park, SaturateMSHR, FlipTagBit and checkpoint restore.
func (c *Cache) setWake() {
	c.wake = c.headWake()
	if c.bound != nil && c.wake < *c.bound {
		*c.bound = c.wake
	}
}

// headWake computes NextEvent from the queue and park state.
func (c *Cache) headWake() uint64 {
	if c.parked || c.inq.Len() == 0 {
		return math.MaxUint64
	}
	return c.inq.Front().ready
}

// AddBulkTracker attaches a concurrency-metric tracker that is caught
// up per core at events (e.g. the PMC measurement logic).
func (c *Cache) AddBulkTracker(b BulkTracker) { c.bulk = append(c.bulk, b) }

// SyncTrackers catches every bulk tracker up to the clock on every
// core and brings the metrics of outstanding entries current. Readers
// of a bulk tracker's counters or of in-flight entries call it first.
func (c *Cache) SyncTrackers() {
	for _, b := range c.bulk {
		b.Sync(c.clock, c.mshr)
	}
}

// SetClock restarts the clock, and every bulk tracker's per-core
// clocks, at cycle without accounting anything: a restored system
// resumes there.
func (c *Cache) SetClock(cycle uint64) {
	c.clock = cycle
	for _, b := range c.bulk {
		b.SetClock(cycle)
	}
}

// Stats returns a pointer to the live counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// ResetStats zeroes the counters (end of warmup) without touching
// cache contents or in-flight requests.
func (c *Cache) ResetStats() {
	c.stats = Stats{
		PerCoreDemandAccesses: make([]uint64, c.Cores),
		PerCoreDemandMisses:   make([]uint64, c.Cores),
	}
}

// Policy returns the attached replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// MSHRFile exposes the MSHR for trackers and tests.
func (c *Cache) MSHRFile() *MSHR { return c.mshr }

// SetIndex maps an address to its set.
func (c *Cache) SetIndex(a mem.Addr) int { return int(a.BlockID() & c.setMask) }

// Access implements Level: the request enters the input queue and is
// looked up after the base access latency.
func (c *Cache) Access(req *mem.Request, cycle uint64) {
	for _, t := range c.trackers {
		t.OnAccessStart(req.Core, req.Kind, cycle)
	}
	for _, b := range c.bulk {
		b.CatchUp(req.Core, c.clock, c.mshr)
		b.OnAccessStart(req.Core, req.Kind, cycle)
	}
	c.inq.PushBack(queued{req: req, ready: cycle + c.Latency})
	if c.inq.Len() == 1 {
		c.setWake()
	}
}

// Contains reports whether the block holding a is present (used by
// prefetch de-duplication and tests). It does not touch LRU state.
func (c *Cache) Contains(a mem.Addr) bool {
	_, way := c.probe(a)
	return way >= 0
}

// Outstanding reports whether a miss for a's block is in flight.
func (c *Cache) Outstanding(a mem.Addr) bool { return c.mshr.Lookup(a.BlockID()) != nil }

// probe returns (set, way) of a resident block, way == -1 on miss.
func (c *Cache) probe(a mem.Addr) (int, int) {
	set := c.SetIndex(a)
	want := a.BlockID()<<1 | 1
	base := set * c.Ways
	tags := c.tags[base : base+c.Ways]
	for w := range tags {
		if tags[w] == want {
			return set, w
		}
	}
	return set, -1
}

// Tick advances the cache by one cycle: moves the clock past it, runs
// the ticked trackers and drains the input queue entries whose base
// access phase has completed. A head that misses on a full MSHR file
// blocks the queue and parks it; a parked queue only counts its
// stalls, without repeating the lookup, until an event that can
// change its outcome un-parks it.
func (c *Cache) Tick(cycle uint64) {
	c.clock = cycle + 1
	for _, t := range c.trackers {
		t.Tick(cycle, c.mshr)
	}
	if c.parked {
		c.countStalls(cycle + 1)
		return
	}
	for c.inq.Len() > 0 {
		front := c.inq.Front()
		if front.ready > cycle {
			break
		}
		if !c.lookup(front.req, cycle) {
			// Head-of-line blocking on a full MSHR: this cycle is the
			// first stall.
			c.parked = true
			c.parkedAt = cycle
			c.countStalls(cycle + 1)
			break
		}
		c.inq.PopFront()
	}
	c.setWake()
}

// Due reports whether the simulator must Tick the cache at cycle: its
// queue head is ready (the stored NextEvent has come) or a ticked
// tracker is attached. Any other Tick would only move the clock and
// count a parked queue's stall, which SkipCycles does in bulk.
func (c *Cache) Due(cycle uint64) bool {
	return c.wake <= cycle || len(c.trackers) > 0
}

// NextEvent returns the earliest cycle at which Tick can do more than
// run the ticked trackers and count a stall: the ready cycle of an
// un-parked queue head (which may already have passed), or
// math.MaxUint64 when the queue is empty or parked. It is a stored
// value, not a walk: setWake recomputes it at each place it can move
// (Access into an empty queue, the end of an un-parked Tick, fill's
// un-park, SaturateMSHR, FlipTagBit and restore), and lowers the
// simulator's shared bound with it, so the bound limits the
// simulator's fast-forward and decides whether a step ticks caches at
// all.
func (c *Cache) NextEvent() uint64 { return c.wake }

// SkipCycles accounts for the cycles before to that were not ticked,
// every one of them before NextEvent, in which nothing a tracker can
// see changes: the clock moves to to, no tracker is called, and a
// parked queue counts each of them as a stall. Readers of the stall
// count call it with the current cycle.
func (c *Cache) SkipCycles(to uint64) {
	c.clock = to
	c.countStalls(to)
}

// countStalls adds a parked queue's stalls from parkedAt up to to
// (exclusive) to MSHRStallCycles. The un-parking paths call it with
// the first cycle the queue may be looked up again in: the next cycle
// when they run after the cache's own Tick of the cycle (a fill), the
// current one when they run before it (the fault hooks).
func (c *Cache) countStalls(to uint64) {
	if c.parked && to > c.parkedAt {
		c.stats.MSHRStallCycles += to - c.parkedAt
		c.parkedAt = to
	}
}

// lookup performs the tag match for req. It returns false if the
// request could not be handled this cycle (MSHR full) and must retry.
func (c *Cache) lookup(req *mem.Request, cycle uint64) bool {
	if req.Kind == mem.Writeback {
		c.lookupWriteback(req, cycle)
		return true
	}
	set, way := c.probe(req.Addr)
	hit := way >= 0

	if hit {
		c.countAccess(req, true)
		blk := &c.blocks[set*c.Ways+way]
		info := c.infoFor(req)
		info.HitPrefetched = blk.Prefetched
		req.PrefetchHit = blk.Prefetched && req.Kind.IsDemand()
		if req.Kind.IsDemand() {
			blk.Prefetched = false
		}
		if req.Kind == mem.Store {
			blk.Dirty = true
		}
		c.policy.OnHit(set, way, info)
		c.maybePrefetch(req, true, cycle)
		req.Respond(cycle)
		req.Release()
		return true
	}

	// Miss: merge with an outstanding request for the same block, or
	// allocate a new MSHR entry and fetch from below. A request that
	// cannot be handled this cycle (full MSHR) is counted only when it
	// finally succeeds, so retries do not inflate the access stats.
	if e := c.mshr.Lookup(req.Addr.BlockID()); e != nil {
		c.countAccess(req, false)
		c.mshr.Merge(e, req)
		c.stats.MSHRMerges++
		c.maybePrefetch(req, false, cycle)
		if !req.HasDone() {
			// Nobody waits for this request (prefetch, forwarded
			// writeback): it was not kept as an MSHR waiter, so its
			// life ends here.
			req.Release()
		}
		return true
	}
	if req.Kind == mem.Prefetch && c.mshr.Len() >= c.pfDropAt {
		// Prefetches must not crowd out demand misses: once the MSHR
		// file runs low on headroom they are dropped, as real
		// prefetch queues do.
		c.countAccess(req, false)
		c.stats.PrefetchesDropped++
		req.Respond(cycle)
		req.Release()
		return true
	}
	if c.mshr.Full() {
		return false
	}
	c.countAccess(req, false)
	e, err := c.allocate(req, cycle)
	if err != nil {
		// Full and Lookup were checked above, so this is an internal
		// invariant violation (or injected fault): latch it for the
		// simulator, answer the requester so nothing wedges, and keep
		// the cache consistent by not installing anything.
		c.fail(fmt.Errorf("cache %s: %w", c.Name, err))
		req.Respond(cycle)
		req.Release()
		return true
	}
	c.maybePrefetch(req, false, cycle)
	if c.lower == nil {
		// No backing level configured (unit tests): serve instantly.
		if !req.HasDone() {
			req.Release()
		}
		c.fill(e, cycle)
		return true
	}
	down := c.pool.Get()
	down.ID = req.ID
	down.Addr = req.Addr.Block()
	down.PC = req.PC
	down.Core = req.Core
	down.Kind = req.Kind
	down.IssueCycle = cycle
	down.Owner = c
	down.Tag = e.slot
	if !req.HasDone() {
		req.Release()
	}
	c.lower.Access(down, cycle)
	return true
}

// allocate claims an MSHR entry for req's block. The bulk trackers
// catch req's core up first and mark the entry after.
func (c *Cache) allocate(req *mem.Request, cycle uint64) (*MSHREntry, error) {
	for _, b := range c.bulk {
		b.CatchUp(req.Core, c.clock, c.mshr)
	}
	e, err := c.mshr.Allocate(req)
	if err == nil {
		for _, b := range c.bulk {
			b.OnMissAlloc(e)
		}
	}
	return e, err
}

// lookupWriteback handles a dirty block arriving from the level
// above. A hit updates the resident copy (absorbing the write); a
// miss forwards the writeback to the next level without allocating —
// the non-inclusive design point that avoids displacing demand data
// with write traffic. The last level before memory allocates instead
// (there is nothing below to forward to).
func (c *Cache) lookupWriteback(req *mem.Request, cycle uint64) {
	set, way := c.probe(req.Addr)
	c.countAccess(req, way >= 0)
	if way >= 0 {
		c.blocks[set*c.Ways+way].Dirty = true
		req.Respond(cycle)
		req.Release()
		return
	}
	if c.lower != nil {
		c.stats.WritebacksIssued++
		fwd := c.pool.Get()
		fwd.ID = req.ID
		fwd.Addr = req.Addr.Block()
		fwd.PC = req.PC
		fwd.Core = req.Core
		fwd.Kind = mem.Writeback
		fwd.IssueCycle = cycle
		c.lower.Access(fwd, cycle)
		req.Respond(cycle)
		req.Release()
		return
	}
	c.installBlock(req.Addr, req.PC, req.Core, mem.Writeback, 0, 0, cycle)
	req.Respond(cycle)
	req.Release()
}

// Complete implements mem.Completer: the lower level answered the
// fetch tagged with an MSHR slab slot.
func (c *Cache) Complete(tag uint32, cycle uint64) { c.fill(c.mshr.At(tag), cycle) }

// fill completes an outstanding miss: metrics are finalised, a victim
// is chosen, dirty victims are written back, the block is installed,
// and every merged requester is answered.
func (c *Cache) fill(e *MSHREntry, cycle uint64) {
	for _, b := range c.bulk {
		b.CatchUp(e.Core, c.clock, c.mshr)
		b.OnMissComplete(e, cycle)
	}
	for _, t := range c.trackers {
		t.OnMissComplete(e, cycle)
	}
	if e.PureCycles > 0 {
		c.stats.PureMisses++
	}
	if e.HitOverlapped {
		c.stats.HitOverlapMisses++
	}
	c.stats.PMCSum += e.PMC

	c.installBlock(mem.Addr(e.Block<<mem.BlockBits), e.PC, e.Core, e.Kind, e.PMC, e.MLPCost, cycle)

	// A released entry un-parks the queue. The lower level answers
	// after the cache's own Tick of cycle, which still stalled.
	c.countStalls(cycle + 1)
	c.parked = false
	c.setWake()
	for _, w := range c.mshr.Release(e) {
		w.PMC = e.PMC
		w.MLPCost = e.MLPCost
		w.Respond(cycle)
		w.Release()
	}
}

// installBlock places a block into its set, evicting if necessary.
// One pass over the set's tags finds the block if it is resident, and
// otherwise the first free way; only a full set asks the policy.
func (c *Cache) installBlock(addr, pc mem.Addr, core int, kind mem.Kind, pmc, mlpCost float64, cycle uint64) {
	set := c.SetIndex(addr)
	base := set * c.Ways
	want := addr.BlockID()<<1 | 1
	way := -1
	for w, t := range c.tags[base : base+c.Ways] {
		if t == want {
			// Block raced in via another path (e.g. writeback after a
			// demand fill). Refresh rather than duplicate.
			if kind == mem.Writeback || kind == mem.Store {
				c.blocks[base+w].Dirty = true
			}
			return
		}
		if t == 0 && way < 0 {
			way = w
		}
	}
	info := AccessInfo{
		PC:      pc,
		Addr:    addr,
		Core:    core,
		Kind:    kind,
		PMC:     pmc,
		MLPCost: mlpCost,
	}
	if way < 0 {
		if way = c.findVictim(set, info); way < 0 {
			return // victim selection failed; failure already latched
		}
	}
	blk := &c.blocks[base+way]
	if blk.Valid {
		c.stats.Evictions++
		c.policy.OnEvict(set, way, info)
		if blk.Dirty && c.lower != nil {
			c.writeback(blk, cycle)
		}
	}
	// Every field is written in place: assigning a composite literal
	// would build the block aside and copy it.
	blk.Valid = true
	blk.Tag = addr.BlockID()
	blk.Dirty = kind == mem.Store || kind == mem.Writeback
	blk.Prefetched = kind == mem.Prefetch
	blk.Core = core
	blk.PC = pc
	c.tags[base+way] = want
	c.stats.Fills++
	c.policy.OnFill(set, way, info)
}

// findVictim asks the policy for the way of a full set to evict,
// validating its answer. A policy returning an out-of-range way
// latches ErrBadVictim and yields -1 (the fill is skipped; a
// wrong-way eviction would silently corrupt the timing model).
func (c *Cache) findVictim(set int, info AccessInfo) int {
	way := c.policy.Victim(set, info)
	if way < 0 || way >= c.Ways {
		c.fail(fmt.Errorf("cache %s: %w: policy %s returned way %d", c.Name, ErrBadVictim, c.policy.Name(), way))
		return -1
	}
	return way
}

// writeback sends an evicted dirty block to the next level.
func (c *Cache) writeback(blk *block, cycle uint64) {
	c.stats.WritebacksIssued++
	c.nextReqID++
	wb := c.pool.Get()
	wb.ID = c.nextReqID
	wb.Addr = mem.Addr(blk.Tag << mem.BlockBits)
	wb.PC = blk.PC
	wb.Core = blk.Core
	wb.Kind = mem.Writeback
	wb.IssueCycle = cycle
	c.lower.Access(wb, cycle)
}

// maybePrefetch consults the attached prefetcher on demand accesses
// and injects the suggested prefetches into this cache's own input
// queue (self-prefetching, as in ChampSim's L1/L2 prefetchers).
func (c *Cache) maybePrefetch(req *mem.Request, hit bool, cycle uint64) {
	if c.prefetcher == nil || !req.Kind.IsDemand() {
		return
	}
	c.pfBuf = c.prefetcher.OnAccess(req.PC, req.Addr, hit, c.pfBuf[:0])
	for _, addr := range c.pfBuf {
		addr = addr.Block()
		if c.Contains(addr) || c.Outstanding(addr) {
			continue
		}
		c.nextReqID++
		pf := c.pool.Get()
		pf.ID = c.nextReqID
		pf.Addr = addr
		pf.PC = req.PC
		pf.Core = req.Core
		pf.Kind = mem.Prefetch
		pf.IssueCycle = cycle
		c.Access(pf, cycle)
	}
}

// countAccess updates the per-kind counters for a lookup.
func (c *Cache) countAccess(req *mem.Request, hit bool) {
	switch {
	case req.Kind == mem.Writeback:
		c.stats.WritebackAccesses++
		if hit {
			c.stats.WritebackHits++
		} else {
			c.stats.WritebackMisses++
		}
	case req.Kind == mem.Prefetch:
		c.stats.PrefetchAccesses++
		if hit {
			c.stats.PrefetchHits++
		} else {
			c.stats.PrefetchMisses++
		}
	default:
		c.stats.DemandAccesses++
		if req.Core >= 0 && req.Core < len(c.stats.PerCoreDemandAccesses) {
			c.stats.PerCoreDemandAccesses[req.Core]++
		}
		if hit {
			c.stats.DemandHits++
		} else {
			c.stats.DemandMisses++
			if req.Core >= 0 && req.Core < len(c.stats.PerCoreDemandMisses) {
				c.stats.PerCoreDemandMisses[req.Core]++
			}
		}
	}
}

// infoFor builds the policy callback descriptor for an access.
func (c *Cache) infoFor(req *mem.Request) AccessInfo {
	return AccessInfo{
		PC:   req.PC,
		Addr: req.Addr,
		Core: req.Core,
		Kind: req.Kind,
	}
}

// Drained reports whether the cache has no queued or outstanding
// work; the simulator uses it to decide when a run has quiesced.
func (c *Cache) Drained() bool { return c.inq.Len() == 0 && c.mshr.Len() == 0 }
