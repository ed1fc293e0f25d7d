package cache

import (
	"errors"
	"testing"
	"testing/quick"

	"care/internal/checkpoint"
	"care/internal/mem"
)

// testLRU is a minimal true-LRU policy for exercising the cache
// machinery without importing the replacement zoo.
type testLRU struct {
	stamp []uint64
	ways  int
	clock uint64
}

func (p *testLRU) Name() string { return "test-lru" }
func (p *testLRU) Init(sets, ways int) {
	p.stamp = make([]uint64, sets*ways)
	p.ways = ways
}
func (p *testLRU) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}
func (p *testLRU) Victim(set int, info AccessInfo) int {
	stamps := p.stamp[set*p.ways : (set+1)*p.ways]
	best, bestStamp := 0, stamps[0]
	for w := 1; w < len(stamps); w++ {
		if stamps[w] < bestStamp {
			best, bestStamp = w, stamps[w]
		}
	}
	return best
}
func (p *testLRU) OnHit(set, way int, info AccessInfo)   { p.touch(set, way) }
func (p *testLRU) OnFill(set, way int, info AccessInfo)  { p.touch(set, way) }
func (p *testLRU) OnEvict(set, way int, info AccessInfo) {}
func (p *testLRU) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.stamp, p.ways, checkpoint.Uints)
	checkpoint.Uint(s, &p.clock)
}

// fixedLatencyMemory is a Level that answers every request after a
// constant delay, via an internal event list drained by Tick.
type fixedLatencyMemory struct {
	latency  uint64
	pending  []queued
	accesses int
	writes   int
}

func (m *fixedLatencyMemory) Access(req *mem.Request, cycle uint64) {
	m.accesses++
	if req.Kind == mem.Writeback {
		m.writes++
		req.Respond(cycle)
		req.Release()
		return
	}
	m.pending = append(m.pending, queued{req: req, ready: cycle + m.latency})
}

func (m *fixedLatencyMemory) Tick(cycle uint64) {
	rest := m.pending[:0]
	for _, q := range m.pending {
		if q.ready <= cycle {
			// Respond then recycle, the bottom-of-hierarchy contract
			// the real DRAM model follows.
			q.req.Respond(cycle)
			q.req.Release()
		} else {
			rest = append(rest, q)
		}
	}
	m.pending = rest
}

func newTestCache(t *testing.T, sets, ways int, mshr int, lowerLatency uint64) (*Cache, *fixedLatencyMemory) {
	t.Helper()
	c := New(Params{
		Name:        "test",
		Sets:        sets,
		Ways:        ways,
		Latency:     2,
		MSHREntries: mshr,
		Cores:       2,
	}, &testLRU{})
	lower := &fixedLatencyMemory{latency: lowerLatency}
	c.SetLower(lower)
	return c, lower
}

// run advances cache+memory until the given cycle.
func run(c *Cache, m *fixedLatencyMemory, from, to uint64) {
	for cy := from; cy <= to; cy++ {
		c.Tick(cy)
		m.Tick(cy)
	}
}

func load(addr mem.Addr, done func(uint64)) *mem.Request {
	r := &mem.Request{Addr: addr, PC: 0x400000, Kind: mem.Load}
	if done != nil {
		r.Owner = mem.CompleteFunc(func(_ uint32, cy uint64) { done(cy) })
	}
	return r
}

func TestNewValidatesGeometry(t *testing.T) {
	for _, bad := range []Params{
		{Sets: 3, Ways: 4, MSHREntries: 4},
		{Sets: 0, Ways: 4, MSHREntries: 4},
		{Sets: 4, Ways: 0, MSHREntries: 4},
		{Sets: 4, Ways: 4, MSHREntries: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) should panic", bad)
				}
			}()
			New(bad, &testLRU{})
		}()
	}
}

func TestSizeBytes(t *testing.T) {
	p := Params{Sets: 64, Ways: 8}
	if got := p.SizeBytes(); got != 64*8*mem.BlockSize {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 8, 10)
	var missDone, hitDone uint64
	c.Access(load(0x1000, func(cy uint64) { missDone = cy }), 0)
	run(c, lower, 0, 30)
	if missDone == 0 {
		t.Fatal("miss never completed")
	}
	// Latency must include base (2) + memory (10).
	if missDone < 12 {
		t.Fatalf("miss completed at %d, expected >= 12", missDone)
	}
	c.Access(load(0x1000, func(cy uint64) { hitDone = cy }), 100)
	run(c, lower, 100, 110)
	if hitDone != 102 {
		t.Fatalf("hit completed at %d, want 102 (base latency only)", hitDone)
	}
	s := c.Stats()
	if s.DemandAccesses != 2 || s.DemandMisses != 1 || s.DemandHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMSHRMergeSameBlock(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 8, 20)
	var done1, done2 uint64
	c.Access(load(0x2000, func(cy uint64) { done1 = cy }), 0)
	c.Access(load(0x2008, func(cy uint64) { done2 = cy }), 1) // same block
	run(c, lower, 0, 60)
	if done1 == 0 || done2 == 0 {
		t.Fatal("merged requests did not both complete")
	}
	if done1 != done2 {
		t.Fatalf("merged requests completed at different cycles: %d vs %d", done1, done2)
	}
	s := c.Stats()
	if s.MSHRMerges != 1 {
		t.Fatalf("MSHRMerges = %d, want 1", s.MSHRMerges)
	}
	if s.DemandMisses != 2 {
		t.Fatalf("DemandMisses = %d, want 2 (both count as misses)", s.DemandMisses)
	}
	if lower.accesses != 1 {
		t.Fatalf("lower level saw %d accesses, want 1", lower.accesses)
	}
}

func TestMSHRFullBlocksQueue(t *testing.T) {
	c, lower := newTestCache(t, 64, 4, 2, 1000)
	completed := 0
	for i := 0; i < 4; i++ {
		c.Access(load(mem.Addr(0x10000+i*0x1000), func(uint64) { completed++ }), 0)
	}
	run(c, lower, 0, 100)
	if got := c.MSHRFile().Len(); got != 2 {
		t.Fatalf("MSHR entries = %d, want capacity 2", got)
	}
	if c.Stats().MSHRStallCycles == 0 {
		t.Fatal("expected MSHR stall cycles to accumulate")
	}
	run(c, lower, 101, 3000)
	if completed != 4 {
		t.Fatalf("completed = %d, want 4 after drain", completed)
	}
	if !c.Drained() {
		t.Fatal("cache should be drained")
	}
}

func TestEvictionWritebackOfDirty(t *testing.T) {
	c, lower := newTestCache(t, 1, 2, 8, 5) // one set, two ways
	// Fill two blocks, one via store (dirty).
	c.Access(&mem.Request{Addr: 0x0000, Kind: mem.Store, PC: 1}, 0)
	c.Access(load(0x1000, nil), 0)
	run(c, lower, 0, 20)
	// Third block forces an eviction of the LRU (the store block).
	c.Access(load(0x2000, nil), 50)
	run(c, lower, 50, 80)
	if lower.writes != 1 {
		t.Fatalf("lower saw %d writebacks, want 1", lower.writes)
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestWritebackHitMarksDirty(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 8, 5)
	c.Access(load(0x3000, nil), 0)
	run(c, lower, 0, 20)
	c.Access(&mem.Request{Addr: 0x3000, Kind: mem.Writeback}, 30)
	run(c, lower, 30, 40)
	set, way := c.probe(0x3000)
	if way < 0 {
		t.Fatal("block missing")
	}
	if !c.blocks[set*c.Ways+way].Dirty {
		t.Fatal("writeback hit should mark the block dirty")
	}
	if c.Stats().WritebackHits != 1 {
		t.Fatalf("WritebackHits = %d", c.Stats().WritebackHits)
	}
}

func TestWritebackMissForwardsWhenBacked(t *testing.T) {
	// With a lower level attached, a writeback miss forwards the
	// dirty block downward instead of displacing demand data.
	c, lower := newTestCache(t, 16, 4, 8, 5)
	c.Access(&mem.Request{Addr: 0x4000, Kind: mem.Writeback}, 0)
	run(c, lower, 0, 10)
	if c.Contains(0x4000) {
		t.Fatal("writeback miss should not allocate when a lower level exists")
	}
	if lower.writes != 1 {
		t.Fatalf("writeback should be forwarded, lower saw %d writes", lower.writes)
	}
}

func TestWritebackMissAllocatesAtLastLevel(t *testing.T) {
	// Without a lower level (memory-side cache in unit tests), the
	// writeback must be retained: there is nowhere to forward it.
	c := New(Params{Name: "t", Sets: 16, Ways: 4, Latency: 2, MSHREntries: 8, Cores: 1}, &testLRU{})
	c.Access(&mem.Request{Addr: 0x4000, Kind: mem.Writeback}, 0)
	for cy := uint64(0); cy <= 10; cy++ {
		c.Tick(cy)
	}
	if !c.Contains(0x4000) {
		t.Fatal("terminal level must retain the writeback")
	}
	set, way := c.probe(0x4000)
	if !c.blocks[set*c.Ways+way].Dirty {
		t.Fatal("writeback-installed block must be dirty")
	}
}

func TestStoreMissFillsDirty(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 8, 5)
	c.Access(&mem.Request{Addr: 0x5000, Kind: mem.Store}, 0)
	run(c, lower, 0, 20)
	set, way := c.probe(0x5000)
	if way < 0 || !c.blocks[set*c.Ways+way].Dirty {
		t.Fatal("store miss should fill a dirty block")
	}
}

func TestStoreHitMarksDirty(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 8, 5)
	c.Access(load(0x6000, nil), 0)
	run(c, lower, 0, 20)
	c.Access(&mem.Request{Addr: 0x6000, Kind: mem.Store}, 30)
	run(c, lower, 30, 40)
	set, way := c.probe(0x6000)
	if !c.blocks[set*c.Ways+way].Dirty {
		t.Fatal("store hit should mark dirty")
	}
}

func TestPrefetchFillSetsPrefetchedBit(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 8, 5)
	c.Access(&mem.Request{Addr: 0x7000, Kind: mem.Prefetch}, 0)
	run(c, lower, 0, 20)
	set, way := c.probe(0x7000)
	if way < 0 || !c.blocks[set*c.Ways+way].Prefetched {
		t.Fatal("prefetch fill should set Prefetched")
	}
	// First demand touch clears it and flags PrefetchHit.
	req := load(0x7000, nil)
	c.Access(req, 30)
	run(c, lower, 30, 40)
	if c.blocks[set*c.Ways+way].Prefetched {
		t.Fatal("demand hit should clear Prefetched")
	}
	if !req.PrefetchHit {
		t.Fatal("demand hit on prefetched block should set PrefetchHit")
	}
}

// nextLinePF is a trivial prefetcher for plumbing tests.
type nextLinePF struct{ issued int }

func (p *nextLinePF) Name() string { return "test-next-line" }
func (p *nextLinePF) OnAccess(pc, addr mem.Addr, hit bool, buf []mem.Addr) []mem.Addr {
	p.issued++
	return append(buf, addr+mem.BlockSize)
}

func TestPrefetcherInjection(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 8, 5)
	pf := &nextLinePF{}
	c.SetPrefetcher(pf)
	c.Access(load(0x8000, nil), 0)
	run(c, lower, 0, 40)
	if pf.issued == 0 {
		t.Fatal("prefetcher not consulted")
	}
	if !c.Contains(0x8000 + mem.BlockSize) {
		t.Fatal("next-line prefetch should have filled")
	}
	if c.Stats().PrefetchAccesses == 0 || c.Stats().PrefetchMisses == 0 {
		t.Fatalf("prefetch stats not counted: %+v", c.Stats())
	}
}

func TestPrefetcherDedupAgainstResidentAndOutstanding(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 8, 50)
	pf := &nextLinePF{}
	c.SetPrefetcher(pf)
	// Two loads to the same block in quick succession: the second
	// prefetch suggestion targets an already-outstanding block.
	c.Access(load(0x9000, nil), 0)
	c.Access(load(0x9000+mem.BlockSize, nil), 1)
	run(c, lower, 0, 200)
	// The 0x9040 block must exist exactly once: probe all ways.
	count := 0
	tag := mem.Addr(0x9000 + mem.BlockSize).BlockID()
	for _, blk := range c.blocks {
		if blk.Valid && blk.Tag == tag {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("block duplicated %d times", count)
	}
}

func TestStatsRates(t *testing.T) {
	var s Stats
	s.DemandAccesses = 80
	s.PrefetchAccesses = 20
	s.DemandMisses = 30
	s.PrefetchMisses = 10
	s.PureMisses = 25
	s.PMCSum = 400
	if got := s.MissRate(); got != 0.4 {
		t.Fatalf("MissRate = %v", got)
	}
	if got := s.PureMissRate(); got != 0.25 {
		t.Fatalf("PureMissRate = %v", got)
	}
	if got := s.MeanPMC(); got != 10 {
		t.Fatalf("MeanPMC = %v", got)
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.PureMissRate() != 0 || zero.MeanPMC() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
}

// Property: the cache never holds more valid blocks than its capacity
// and never duplicates a tag within a set, under random access
// streams.
func TestCapacityAndUniquenessProperty(t *testing.T) {
	f := func(seed uint32) bool {
		c, lower := newTestCache(t, 4, 2, 4, 3)
		rng := seed
		next := func() uint32 { rng = rng*1664525 + 1013904223; return rng }
		cycle := uint64(0)
		for i := 0; i < 200; i++ {
			addr := mem.Addr(next()%64) * mem.BlockSize
			kind := mem.Load
			if next()%4 == 0 {
				kind = mem.Store
			}
			c.Access(&mem.Request{Addr: addr, Kind: kind, PC: mem.Addr(next() % 8)}, cycle)
			run(c, lower, cycle, cycle+8)
			cycle += 9
		}
		run(c, lower, cycle, cycle+500)
		valid := 0
		for s := 0; s < c.Sets; s++ {
			seen := map[uint64]bool{}
			for _, blk := range c.blocks[s*c.Ways : (s+1)*c.Ways] {
				if blk.Valid {
					valid++
					if seen[blk.Tag] {
						return false // duplicate tag in set
					}
					seen[blk.Tag] = true
					if c.SetIndex(mem.Addr(blk.Tag<<mem.BlockBits)) != s {
						return false // block in wrong set
					}
				}
			}
		}
		return valid <= 4*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRAccounting(t *testing.T) {
	m := NewMSHR(2, 2)
	if m.Capacity() != 2 || m.Len() != 0 || m.Full() {
		t.Fatal("fresh MSHR state wrong")
	}
	r1 := &mem.Request{Addr: 0x1000, Core: 0, Kind: mem.Load, Owner: mem.CompleteFunc(func(uint32, uint64) {})}
	e1 := mustAllocate(t, m, r1)
	if m.Len() != 1 || m.OutstandingForCore(0) != 1 {
		t.Fatal("allocation accounting wrong")
	}
	r2 := &mem.Request{Addr: 0x2000, Core: 1, Kind: mem.Prefetch}
	e2 := mustAllocate(t, m, r2)
	if !m.Full() {
		t.Fatal("MSHR should be full")
	}
	if m.OutstandingForCore(1) != 1 {
		t.Fatal("per-core count wrong")
	}
	// Demand merge upgrades a prefetch entry.
	m.Merge(e2, &mem.Request{Addr: 0x2000, Core: 0, Kind: mem.Load})
	if e2.Kind != mem.Load {
		t.Fatal("demand merge should upgrade entry kind")
	}
	waiters := m.Release(e1)
	if len(waiters) != 1 || m.Len() != 1 || m.OutstandingForCore(0) != 0 {
		t.Fatal("release accounting wrong")
	}
	_ = e1
	count := 0
	m.ForEach(func(*MSHREntry) { count++ })
	if count != 1 {
		t.Fatalf("ForEach visited %d entries, want 1", count)
	}
}

// mustAllocate fails the test on an allocation error.
func mustAllocate(t *testing.T, m *MSHR, req *mem.Request) *MSHREntry {
	t.Helper()
	e, err := m.Allocate(req)
	if err != nil {
		t.Fatalf("Allocate(%v): %v", req, err)
	}
	return e
}

func TestMSHRAllocateWhenFull(t *testing.T) {
	m := NewMSHR(1, 1)
	mustAllocate(t, m, &mem.Request{Addr: 0x1000})
	if e, err := m.Allocate(&mem.Request{Addr: 0x2000}); !errors.Is(err, ErrMSHRFull) {
		t.Fatalf("Allocate on full MSHR = (%v, %v), want ErrMSHRFull", e, err)
	}
	// The failed allocation must not disturb the accounting.
	if m.Len() != 1 || !m.Full() {
		t.Fatal("failed allocation changed MSHR state")
	}
	// Releasing frees the entry for a new allocation.
	m.Release(m.Lookup(mem.Addr(0x1000).BlockID()))
	if _, err := m.Allocate(&mem.Request{Addr: 0x2000}); err != nil {
		t.Fatalf("Allocate after Release: %v", err)
	}
}

func TestMSHRDuplicateAllocate(t *testing.T) {
	m := NewMSHR(4, 1)
	mustAllocate(t, m, &mem.Request{Addr: 0x1000})
	e, err := m.Allocate(&mem.Request{Addr: 0x1008}) // same block
	if !errors.Is(err, ErrMSHRDuplicate) {
		t.Fatalf("duplicate Allocate = (%v, %v), want ErrMSHRDuplicate", e, err)
	}
	if m.Len() != 1 || m.OutstandingForCore(0) != 1 {
		t.Fatal("failed duplicate allocation changed MSHR state")
	}
}

// TestIntegrityCatchesStalePackedTag: lookups and fills trust the
// packed tag array, so CheckIntegrity must report a packed tag that no
// longer matches its block, for a valid way and for an invalid one.
func TestIntegrityCatchesStalePackedTag(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 8, 5)
	c.Access(load(0x2000, nil), 0)
	run(c, lower, 0, 20)
	set, way := c.probe(0x2000)
	if way < 0 {
		t.Fatal("block missing")
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatalf("intact cache: %v", err)
	}
	valid, free := set*c.Ways+way, set*c.Ways+(way+1)%c.Ways
	for _, i := range []int{valid, free} {
		saved := c.tags[i]
		c.tags[i] ^= 1 << 1
		if err := c.CheckIntegrity(); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("CheckIntegrity with way %d's packed tag %#x stale = %v, want ErrIntegrity", i, c.tags[i], err)
		}
		c.tags[i] = saved
	}
}

// TestMSHRExhaustionBlocksInputQueue drives a cache into MSHR
// exhaustion through the public Access path: with every entry
// outstanding, further misses must stall in the input queue (counted
// as MSHRStallCycles) rather than over-commit, and must drain once
// the lower level responds.
func TestMSHRExhaustionBlocksInputQueue(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 2, 5) // 2 MSHR entries
	for i := 0; i < 4; i++ {
		c.Access(&mem.Request{ID: uint64(i), Addr: mem.Addr(0x10000 + i*64), Kind: mem.Load}, 0)
	}
	// Tick only the cache: the lower level holds every response, so
	// the MSHR file saturates and the queue backs up.
	for cy := uint64(0); cy < 20; cy++ {
		c.Tick(cy)
	}
	if got := c.MSHRFile().Len(); got != 2 {
		t.Fatalf("MSHR occupancy = %d, want capacity 2", got)
	}
	if c.QueueLen() != 2 {
		t.Fatalf("input queue = %d, want 2 blocked misses", c.QueueLen())
	}
	if c.Stats().MSHRStallCycles == 0 {
		t.Fatal("expected MSHRStallCycles to count the head-of-line blocking")
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatalf("integrity under exhaustion: %v", err)
	}
	// Let the lower level respond; the blocked misses must proceed
	// and the whole backlog must drain.
	for cy := uint64(20); cy < 80; cy++ {
		lower.Tick(cy)
		c.Tick(cy)
	}
	if c.QueueLen() != 0 || c.MSHRFile().Len() != 0 {
		t.Fatalf("queue=%d mshr=%d after drain, want 0/0", c.QueueLen(), c.MSHRFile().Len())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cache latched failure on a legal exhaustion path: %v", err)
	}
}
