package pmc

import (
	"math"
	"testing"
	"testing/quick"

	"care/internal/cache"
	"care/internal/mem"
)

// alloc allocates a miss as the cache does: the core is caught up to
// cycle first and the entry marked after.
func alloc(l *Logic, m *cache.MSHR, core int, block uint64, pc mem.Addr, cycle uint64) *cache.MSHREntry {
	l.CatchUp(core, cycle, m)
	e, err := m.Allocate(&mem.Request{
		Addr: mem.Addr(block << mem.BlockBits),
		PC:   pc,
		Core: core,
		Kind: mem.Load,
	})
	if err != nil {
		panic(err)
	}
	l.OnMissAlloc(e)
	return e
}

func TestPureCycleDetection(t *testing.T) {
	l := New(2, 1)
	m := cache.NewMSHR(8, 1)
	e := alloc(l, m, 0, 1, 0x100, 0)
	// No base phase active: every cycle is a pure miss cycle.
	l.Sync(4, m)
	if e.PMC != 4 {
		t.Fatalf("PMC = %v, want 4", e.PMC)
	}
	if e.PureCycles != 4 {
		t.Fatalf("PureCycles = %d, want 4", e.PureCycles)
	}
	if e.MLPCost != 4 {
		t.Fatalf("isolated miss MLP cost = %v, want 4 (every miss cycle)", e.MLPCost)
	}
	if l.ActivePureMissCycles(0) != 4 {
		t.Fatalf("active pure miss cycles = %d", l.ActivePureMissCycles(0))
	}
}

func TestBaseAccessHidesMissCycles(t *testing.T) {
	l := New(2, 1)
	m := cache.NewMSHR(8, 1)
	e := alloc(l, m, 0, 1, 0x100, 0)
	l.OnAccessStart(0, mem.Load, 0) // base phase covers cycles 0,1
	l.Sync(2, m)
	if e.PMC != 0 || e.PureCycles != 0 {
		t.Fatalf("hidden cycles must not add PMC: pmc=%v pure=%d", e.PMC, e.PureCycles)
	}
	if !e.HitOverlapped {
		t.Fatal("entry should be flagged hit-overlapped")
	}
	if e.MLPCost != 2 {
		t.Fatalf("MLP cost must ignore base phases: %v, want 2", e.MLPCost)
	}
	l.Sync(3, m) // base expired at cycle 2

	if e.PMC != 1 {
		t.Fatalf("PMC after base expiry = %v, want 1", e.PMC)
	}
	if e.MLPCost != 3 {
		t.Fatalf("MLP cost after base expiry = %v, want 3", e.MLPCost)
	}
}

func TestConcurrentMissesSplitCycle(t *testing.T) {
	l := New(2, 1)
	m := cache.NewMSHR(8, 1)
	e1 := alloc(l, m, 0, 1, 0x100, 0)
	e2 := alloc(l, m, 0, 2, 0x108, 0)
	e3 := alloc(l, m, 0, 3, 0x110, 0)
	l.Sync(1, m)
	for _, e := range []*cache.MSHREntry{e1, e2, e3} {
		if math.Abs(e.PMC-1.0/3.0) > 1e-12 || math.Abs(e.MLPCost-1.0/3.0) > 1e-12 {
			t.Fatalf("three concurrent misses should each get 1/3: PMC %v, MLP cost %v", e.PMC, e.MLPCost)
		}
	}
	// Sum of PMC equals active pure miss cycles.
	if l.ActivePureMissCycles(0) != 1 {
		t.Fatal("one active pure miss cycle expected")
	}
}

func TestPerCoreIsolation(t *testing.T) {
	l := New(2, 2)
	m := cache.NewMSHR(8, 2)
	e0 := alloc(l, m, 0, 1, 0x100, 0)
	e0b := alloc(l, m, 0, 3, 0x108, 0)
	e1 := alloc(l, m, 1, 2, 0x200, 0)
	// Core 1 has a base phase; core 0 does not.
	l.OnAccessStart(1, mem.Load, 0)
	l.Sync(1, m)
	for _, e := range []*cache.MSHREntry{e0, e0b} {
		if e.PMC != 0.5 || e.MLPCost != 0.5 {
			t.Fatalf("core 0 entry PMC = %v, MLP cost = %v, want 1/2 each (N_0 = 2)", e.PMC, e.MLPCost)
		}
	}
	if e1.PMC != 0 {
		t.Fatalf("core 1 entry PMC = %v, want 0 (hidden by own base phase)", e1.PMC)
	}
	if e1.MLPCost != 1 {
		t.Fatalf("core 1's lone miss MLP cost = %v, want the full cycle (N_1 = 1)", e1.MLPCost)
	}
	if !e1.HitOverlapped || e0.HitOverlapped {
		t.Fatal("hit-overlap flags must be per core")
	}
}

func TestSampleCallback(t *testing.T) {
	l := New(2, 1)
	var got []Sample
	l.OnSample = func(s Sample) { got = append(got, s) }
	m := cache.NewMSHR(8, 1)
	e := alloc(l, m, 0, 1, 0xabc, 0)
	l.CatchUp(0, 1, m)
	l.OnMissComplete(e, 5)
	if len(got) != 1 {
		t.Fatalf("OnSample called %d times", len(got))
	}
	s := got[0]
	if s.PC != 0xabc || s.PMC != 1 || !s.Pure || s.Cycle != 5 {
		t.Fatalf("sample = %+v", s)
	}
}

func TestNoSampleCallbackIsSafe(t *testing.T) {
	l := New(2, 1)
	m := cache.NewMSHR(8, 1)
	e := alloc(l, m, 0, 1, 0x100, 0)
	l.OnMissComplete(e, 1) // must not panic without OnSample
}

func TestAOCPAGrowsWithOverlap(t *testing.T) {
	// Sequential accesses: no overlap.
	seq := New(2, 1)
	m := cache.NewMSHR(8, 1)
	seq.OnAccessStart(0, mem.Load, 0)
	seq.CatchUp(0, 10, m)
	seq.OnAccessStart(0, mem.Load, 10)
	seq.Sync(11, m)
	if seq.AOCPA(0) != 0 {
		t.Fatalf("sequential AOCPA = %v, want 0", seq.AOCPA(0))
	}
	// Concurrent accesses overlap.
	con := New(2, 1)
	con.OnAccessStart(0, mem.Load, 0)
	con.OnAccessStart(0, mem.Load, 0)
	con.Sync(1, m)
	if con.AOCPA(0) <= 0 {
		t.Fatalf("concurrent AOCPA = %v, want > 0", con.AOCPA(0))
	}
}

func TestOutOfRangeCoreClamped(t *testing.T) {
	l := New(2, 1)
	l.OnAccessStart(7, mem.Load, 0) // clamps to core 0
	if l.Accesses(0) != 1 {
		t.Fatal("out-of-range core should clamp to 0")
	}
	if l.AOCPA(9) != 0 || l.ActivePureMissCycles(-1) != 0 || l.Accesses(-2) != 0 {
		t.Fatal("out-of-range queries must return zero")
	}
}

// Property: over random schedules the sum of all entries' PMC always
// equals the total active pure miss cycles (the Table II invariant),
// and the sum of their MLP costs equals the cycles with at least one
// outstanding miss.
func TestPMCSumInvariant(t *testing.T) {
	f := func(seed uint32) bool {
		rng := seed
		next := func(n uint32) uint32 { rng = rng*1664525 + 1013904223; return rng % n }
		l := New(2, 1)
		m := cache.NewMSHR(16, 1)
		var entries []*cache.MSHREntry
		// Released slots are recycled, so capture the metrics at release.
		var donePMC, doneMLP []float64
		block, missCycles := uint64(0), 0
		for cy := uint64(0); cy < 100; cy++ {
			if next(4) == 0 && !m.Full() {
				block++
				entries = append(entries, alloc(l, m, 0, block, mem.Addr(block), cy))
			}
			if next(4) == 0 {
				l.CatchUp(0, cy, m)
				l.OnAccessStart(0, mem.Load, cy)
			}
			if m.Len() > 0 {
				missCycles++
			}
			// Cycle cy is accounted before the completion.
			if next(5) == 0 && len(entries) > 0 {
				e := entries[0]
				entries = entries[1:]
				l.CatchUp(0, cy+1, m)
				l.OnMissComplete(e, cy)
				m.Release(e)
				donePMC = append(donePMC, e.PMC)
				doneMLP = append(doneMLP, e.MLPCost)
			}
		}
		l.Sync(100, m)
		var sum, mlpSum float64
		for i := range donePMC {
			sum += donePMC[i]
			mlpSum += doneMLP[i]
		}
		for _, e := range entries {
			sum += e.PMC
			mlpSum += e.MLPCost
		}
		return math.Abs(sum-float64(l.ActivePureMissCycles(0))) < 1e-6 &&
			math.Abs(mlpSum-float64(missCycles)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
