package pmc

import (
	"math/rand"
	"testing"

	"care/internal/cache"
	"care/internal/mem"
)

// pmlStep is one step of a benchmark stream: the events of one cycle,
// then span cycles (one, or a dead window) in which nothing happens.
type pmlStep struct {
	accessCore int // -1: no base phase starts
	complete   int // index into the live entries to complete, -1: none
	allocCore  int // -1: no allocation
	span       uint64
}

// pmlStream builds a fixed synthetic 4-core LLC stream that keeps
// about 28 misses outstanding, with dead windows between event cycles
// as in a memory-bound simulation.
func pmlStream(steps int) (stream []pmlStep, cycles uint64) {
	rng := rand.New(rand.NewSource(1))
	live := 0
	for i := 0; i < steps; i++ {
		st := pmlStep{accessCore: -1, complete: -1, allocCore: -1, span: 1}
		if rng.Intn(2) == 0 {
			st.accessCore = rng.Intn(4)
		}
		if live > 0 && rng.Intn(3) == 0 {
			st.complete = rng.Intn(live)
			live--
		}
		if live < 28 && rng.Intn(2) == 0 {
			st.allocCore = rng.Intn(4)
			live++
		}
		if rng.Intn(4) != 0 {
			st.span = 1 + uint64(rng.Intn(40))
		}
		stream = append(stream, st)
		cycles += st.span
	}
	for ; live > 0; live-- {
		stream = append(stream, pmlStep{accessCore: -1, complete: 0, allocCore: -1, span: 1})
		cycles++
	}
	return stream, cycles
}

// BenchmarkPML replays pmlStream through the PML alone, driven as the
// cache drives it: each event catches its core up first, the cycles
// between events cost nothing until then, and every pass ends with a
// Sync. It reports the PML's cost per simulated cycle.
func BenchmarkPML(b *testing.B) {
	stream, cycles := pmlStream(20000)
	l := New(20, 4)
	m := cache.NewMSHR(32, 4)
	// Request i misses on block i; free holds the requests whose block
	// is not outstanding.
	reqs := make([]mem.Request, 32)
	free := make([]int, 0, len(reqs))
	for i := range reqs {
		reqs[i] = mem.Request{Addr: mem.Addr(uint64(i) << mem.BlockBits), Kind: mem.Load}
		free = append(free, i)
	}
	live := make([]*cache.MSHREntry, 0, len(reqs))
	cycle := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range stream {
			if st.accessCore >= 0 {
				l.CatchUp(st.accessCore, cycle, m)
				l.OnAccessStart(st.accessCore, mem.Load, cycle)
			}
			if st.complete >= 0 {
				e := live[st.complete]
				live = append(live[:st.complete], live[st.complete+1:]...)
				l.CatchUp(e.Core, cycle, m)
				l.OnMissComplete(e, cycle)
				m.Release(e)
				free = append(free, int(e.Block))
			}
			if st.allocCore >= 0 {
				req := &reqs[free[len(free)-1]]
				free = free[:len(free)-1]
				req.Core = st.allocCore
				l.CatchUp(req.Core, cycle, m)
				e, err := m.Allocate(req)
				if err != nil {
					b.Fatal(err)
				}
				l.OnMissAlloc(e)
				live = append(live, e)
			}
			cycle += st.span
		}
		l.Sync(cycle, m)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*cycles), "ns/cycle")
}
