// Package mlp holds the black-box tests of the MLP-based cost of
// Qureshi et al. ("A Case for MLP-Aware Cache Replacement", ISCA 2006)
// that the PML accrues on every MSHR entry's MLPCost: each miss access
// cycle is divided equally among the core's outstanding misses,
// whether or not a base access phase hides it. The cost is computed by
// pmc.Logic; the package has no code of its own.
package mlp

import (
	"math"
	"testing"

	"care/internal/cache"
	"care/internal/core/pmc"
	"care/internal/mem"
)

// alloc allocates a miss of core on block at clock as the cache does:
// the core is caught up first and the entry marked after.
func alloc(l *pmc.Logic, m *cache.MSHR, core int, block, clock uint64) *cache.MSHREntry {
	l.CatchUp(core, clock, m)
	e, err := m.Allocate(&mem.Request{
		Addr: mem.Addr(block << mem.BlockBits),
		Core: core,
		Kind: mem.Load,
	})
	if err != nil {
		panic(err)
	}
	l.OnMissAlloc(e)
	return e
}

func TestIsolatedMissCostsFullCycles(t *testing.T) {
	l := pmc.New(1, 1)
	m := cache.NewMSHR(8, 1)
	e := alloc(l, m, 0, 1, 0)
	l.Sync(6, m)
	if e.MLPCost != 6 {
		t.Fatalf("isolated miss MLP cost = %v, want 6", e.MLPCost)
	}
}

func TestConcurrentMissesShareCost(t *testing.T) {
	l := pmc.New(1, 1)
	m := cache.NewMSHR(8, 1)
	e1 := alloc(l, m, 0, 1, 0)
	e2 := alloc(l, m, 0, 2, 0)
	e3 := alloc(l, m, 0, 3, 0)
	l.Sync(1, m)
	for _, e := range []*cache.MSHREntry{e1, e2, e3} {
		if math.Abs(e.MLPCost-1.0/3.0) > 1e-12 {
			t.Fatalf("three concurrent misses should each get 1/3, got %v", e.MLPCost)
		}
	}
}

func TestBaseAccessDoesNotHideMLPCost(t *testing.T) {
	l := pmc.New(1, 1)
	m := cache.NewMSHR(8, 1)
	e := alloc(l, m, 0, 1, 0)
	l.OnAccessStart(0, mem.Load, 0) // hides the cycle from PMC only
	l.Sync(1, m)
	if e.PMC != 0 {
		t.Fatalf("PMC under a base phase = %v, want 0", e.PMC)
	}
	if e.MLPCost != 1 {
		t.Fatalf("MLP cost must ignore base phases, got %v", e.MLPCost)
	}
}

func TestPerCoreDivision(t *testing.T) {
	l := pmc.New(1, 2)
	m := cache.NewMSHR(8, 2)
	a := alloc(l, m, 0, 1, 0)
	b := alloc(l, m, 0, 2, 0)
	c := alloc(l, m, 1, 3, 0)
	l.Sync(1, m)
	if math.Abs(a.MLPCost-0.5) > 1e-12 || math.Abs(b.MLPCost-0.5) > 1e-12 {
		t.Fatalf("core 0 entries should split: %v %v", a.MLPCost, b.MLPCost)
	}
	if c.MLPCost != 1 {
		t.Fatalf("core 1's lone miss should get the full cycle, got %v", c.MLPCost)
	}
}

func TestCostSumEqualsMissCycles(t *testing.T) {
	// Invariant: per core, the MLP costs of all misses sum to the
	// number of cycles with at least one outstanding miss.
	l := pmc.New(1, 1)
	m := cache.NewMSHR(8, 1)
	e1 := alloc(l, m, 0, 1, 0)
	e2 := alloc(l, m, 0, 2, 1)
	// e1 completes after cycle 1 is accounted.
	l.CatchUp(0, 2, m)
	l.OnMissComplete(e1, 1)
	done := e1.MLPCost // the slot is recycled after release
	m.Release(e1)
	l.Sync(3, m)
	if total := done + e2.MLPCost; math.Abs(total-3) > 1e-12 {
		t.Fatalf("cost sum = %v, want 3 (three miss cycles)", total)
	}
}
