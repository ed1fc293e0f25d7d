package cache

import (
	"strconv"
	"testing"
	"unsafe"

	"care/internal/mem"
)

// TestBlockSize: every fill, integrity sweep and checkpoint walks
// blocks, so a field no one reads, or a bool between the words, shows
// up here.
func TestBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(block{}); strconv.IntSize == 64 && got != 32 {
		t.Fatalf("block is %d bytes, want 32", got)
	}
}

// tableCompleter is a minimal Owner/Tag completion target, standing in
// for the CPU's ROB-slot table on the devirtualized response path.
type tableCompleter struct{ completions int }

func (tc *tableCompleter) Complete(tag uint32, cycle uint64) { tc.completions++ }

// driveSteadyState issues a fixed batch of pooled loads over a
// footprint larger than the cache (so the batch mixes hits, misses,
// and MSHR merges) and ticks the cache and its backing memory until
// the batch drains. Both the test and the benchmark below run it; in
// the steady state one call must allocate nothing.
func driveSteadyState(c *Cache, lower *fixedLatencyMemory, pool *mem.RequestPool, owner *tableCompleter, cycle *uint64, n *uint64) {
	for k := 0; k < 4; k++ {
		req := pool.Get()
		// 96 blocks over a 64-block cache: a rotating mix of resident
		// and missing lines.
		req.Addr = mem.Addr((*n % 96) * mem.BlockSize)
		req.PC = 0x400000
		req.Core = int(*n % 2)
		req.Kind = mem.Load
		req.Owner = owner
		req.Tag = uint32(*n)
		c.Access(req, *cycle)
		*n++
	}
	for k := 0; k < 64; k++ {
		*cycle++
		c.Tick(*cycle)
		lower.Tick(*cycle)
	}
}

func newSteadyStateCache() (*Cache, *fixedLatencyMemory) {
	c := New(Params{
		Name:        "llc",
		Sets:        16,
		Ways:        4,
		Latency:     2,
		MSHREntries: 8,
		Cores:       2,
	}, &testLRU{})
	lower := &fixedLatencyMemory{latency: 20}
	c.SetLower(lower)
	return c, lower
}

// TestLLCAccessPathZeroAllocs pins the tentpole property of the pooled
// request / flat-MSHR / packed-tag redesign: once the input-queue
// ring, the request pool, and the MSHR waiter slices have grown to
// their working size, the LLC access path — enqueue, probe, miss
// allocation, fill, response — allocates nothing.
func TestLLCAccessPathZeroAllocs(t *testing.T) {
	c, lower := newSteadyStateCache()
	pool := &mem.RequestPool{}
	owner := &tableCompleter{}
	var cycle, n uint64
	for i := 0; i < 50; i++ {
		driveSteadyState(c, lower, pool, owner, &cycle, &n)
	}
	issued := n
	allocs := testing.AllocsPerRun(100, func() {
		driveSteadyState(c, lower, pool, owner, &cycle, &n)
	})
	if allocs != 0 {
		t.Fatalf("steady-state LLC access path allocated %.2f objects per batch", allocs)
	}
	if owner.completions < int(issued) {
		t.Fatalf("only %d of %d warmup loads completed", owner.completions, issued)
	}
}

// TestMSHRAllocReleaseZeroAllocs covers the flat-slab MSHR in
// isolation: allocate, merge a second requester, release, and respond
// — zero allocations once the slot's waiter slice has been sized.
func TestMSHRAllocReleaseZeroAllocs(t *testing.T) {
	m := NewMSHR(8, 2)
	pool := &mem.RequestPool{}
	owner := &tableCompleter{}
	roundTrip := func() {
		req := pool.Get()
		req.Addr = 0x1000
		req.Core = 1
		req.Kind = mem.Load
		req.Owner = owner
		e, err := m.Allocate(req)
		if err != nil {
			t.Fatal(err)
		}
		merged := pool.Get()
		merged.Addr = 0x1000
		merged.Core = 0
		merged.Kind = mem.Load
		merged.Owner = owner
		m.Merge(e, merged)
		for _, w := range m.Release(e) {
			w.Respond(2)
			w.Release()
		}
	}
	roundTrip() // size the slot's waiter slice and the pool
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("MSHR allocate/merge/release allocated %.2f objects per round trip", allocs)
	}
	if m.Len() != 0 {
		t.Fatalf("MSHR leaked %d entries", m.Len())
	}
}

// TestCheckIntegrityZeroAllocs: the invariant sweep runs every check
// interval over every set and the MSHR file, so it must allocate
// nothing, with valid blocks resident and misses outstanding.
func TestCheckIntegrityZeroAllocs(t *testing.T) {
	c, lower := newSteadyStateCache()
	pool := &mem.RequestPool{}
	owner := &tableCompleter{}
	var cycle, n uint64
	for i := 0; i < 50; i++ {
		driveSteadyState(c, lower, pool, owner, &cycle, &n)
	}
	if c.SaturateMSHR(cycle) == 0 {
		t.Fatal("no MSHR entry left to claim")
	}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { err = c.CheckIntegrity() }); allocs != 0 {
		t.Fatalf("CheckIntegrity allocated %.2f objects per sweep", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLLCSteadyStateAccess is the acceptance benchmark for the
// zero-allocation redesign: allocs/op must report 0.
func BenchmarkLLCSteadyStateAccess(b *testing.B) {
	c, lower := newSteadyStateCache()
	pool := &mem.RequestPool{}
	owner := &tableCompleter{}
	var cycle, n uint64
	for i := 0; i < 50; i++ {
		driveSteadyState(c, lower, pool, owner, &cycle, &n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		driveSteadyState(c, lower, pool, owner, &cycle, &n)
	}
}
