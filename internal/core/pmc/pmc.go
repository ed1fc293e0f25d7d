// Package pmc implements the paper's Pure Miss Contribution
// measurement logic (PML, §IV): the Access Detector (AD), the Pure
// Miss Detector (PMD), and the PMC Calculation Unit (PCU) of
// Algorithm 1.
//
// The PML attaches to a cache level (the LLC in the paper) as a
// cache.Tracker. Every cycle it decides, per core, whether the cycle
// is an *active pure miss cycle* — the core has outstanding misses
// and no access from that core is inside its base-access (tag lookup)
// phase — and if so it divides the cycle equally among the core's
// outstanding misses, accumulating 1/N_x on each MSHR entry's PMC
// field. A miss that accumulated at least one pure miss cycle is a
// *pure miss*.
//
// The per-core counters are kept cycle by cycle, but the per-entry
// additions follow events. Between events a core's state (a base
// phase active or not, N_x) is constant, so each of its entries gains
// the same 1/N_x in every cycle. Logic counts ticks and gives an entry
// its pending additions in one run when its core's state changes, when
// the miss completes, or on Sync. Each entry still gets the same float
// additions in the same order as a per-cycle walk, so every value is
// bitwise identical to it. An entry's metrics are current only after
// OnMissComplete or Sync.
//
// The same per-cycle scan also computes the two secondary statistics
// the paper reports: hit-miss overlapping (Figure 3) and the Average
// Overlapping Cycles Per Access, AOCPA (Table XI).
package pmc

import (
	"care/internal/cache"
	"care/internal/mem"
)

// Sample records one completed miss for offline analysis (PMC
// distributions, per-PC predictability).
type Sample struct {
	// Core is the core that issued the miss.
	Core int
	// PC is the program counter of the missing access.
	PC mem.Addr
	// PMC is the measured pure miss contribution in cycles.
	PMC float64
	// Pure reports whether the miss had any pure miss cycle.
	Pure bool
	// Cycle is the completion cycle.
	Cycle uint64
}

// Logic is the PMC measurement logic for one cache level. It
// implements cache.BulkTracker and owns the TickMark of the level's
// MSHR entries.
type Logic struct {
	// latency is the level's base access (tag lookup) duration; the
	// AD "monitors for a fixed amount of cycles" (§IV-B).
	latency uint64
	cores   int

	// baseEnds holds, per core, the end cycles (exclusive) of base
	// access phases currently in flight. The AD uses it to set the
	// per-core NoNewAccess bit; its length is also the number of
	// concurrently active base phases, which feeds AOCPA.
	baseEnds [][]uint64

	// Per-core aggregate counters.
	activePureMissCycles []uint64
	overlapCycles        []uint64
	accessCount          []uint64

	// OnSample, if set, receives every completed miss. Used by the
	// distribution and predictability experiments (Fig. 5, Table III).
	OnSample func(Sample)

	// TrackMLP makes the same pass also accumulate the MLP-based cost
	// on each entry (what internal/core/mlp computes standalone),
	// saving a second MSHR sweep on the simulator's hottest path.
	TrackMLP bool

	// basePhases counts base-access phases in flight across all cores
	// (sum of len(baseEnds[x])). When it is zero and the MSHR file is
	// empty, a tick is a provable no-op and is skipped outright —
	// idle-level cycles dominate many mixes.
	basePhases int

	// invTable caches 1/float64(n) for the per-core divisor (bounded
	// by the MSHR capacity), replacing a float division with a load of
	// the identical precomputed quotient.
	invTable []float64

	// state is, per core, the state the core's live entries have been
	// in since their tick marks: their pending additions are made
	// under it.
	state []coreState
	// tick counts the cycles accounted so far. It starts at 1, so an
	// entry whose TickMark is 0 has not been seen yet.
	tick uint64
	// allocs is the MSHR file's Allocs() when its live entries were
	// last stamped with a tick mark.
	allocs uint64
}

type coreState struct {
	baseActive bool
	n          int
	// inv is 1/n, the share each of the core's entries gains per
	// cycle.
	inv float64
}

var _ cache.BulkTracker = (*Logic)(nil)

// New creates the measurement logic for a level with the given base
// access latency serving cores cores.
func New(latency uint64, cores int) *Logic {
	if cores < 1 {
		cores = 1
	}
	return &Logic{
		latency:              latency,
		cores:                cores,
		baseEnds:             make([][]uint64, cores),
		activePureMissCycles: make([]uint64, cores),
		overlapCycles:        make([]uint64, cores),
		accessCount:          make([]uint64, cores),
		state:                make([]coreState, cores),
		tick:                 1,
	}
}

// OnAccessStart implements cache.Tracker: the AD observes a new
// access from core entering its base access phase.
func (l *Logic) OnAccessStart(core int, kind mem.Kind, cycle uint64) {
	if core < 0 || core >= l.cores {
		core = 0
	}
	l.baseEnds[core] = append(l.baseEnds[core], cycle+l.latency)
	l.basePhases++
	l.accessCount[core]++
}

// expireBase drops finished base phases and returns how many remain
// active at cycle for core x. Base phases are recorded at
// monotonically non-decreasing cycles with a fixed latency, so ends
// is sorted and expiry removes a prefix; the common no-expiry case
// costs one comparison and no writes.
func (l *Logic) expireBase(x int, cycle uint64) int {
	ends := l.baseEnds[x]
	i := 0
	for i < len(ends) && ends[i] <= cycle {
		i++
	}
	if i > 0 {
		ends = append(ends[:0], ends[i:]...)
		l.baseEnds[x] = ends
		l.basePhases -= i
	}
	return len(ends)
}

// Tick implements cache.Tracker and is Algorithm 1 for one cycle.
func (l *Logic) Tick(cycle uint64, m *cache.MSHR) { l.advance(cycle, 1, m) }

// TickSpan implements cache.BulkTracker: it splits [from, to) where a
// base phase ends, so that each piece has one state per core.
func (l *Logic) TickSpan(from, to uint64, m *cache.MSHR) {
	for from < to {
		end := to
		if l.basePhases > 0 {
			for _, ends := range l.baseEnds {
				for _, e := range ends {
					if e > from {
						end = min(end, e)
						break
					}
				}
			}
		}
		l.advance(from, end-from, m)
		from = end
	}
}

// advance is Algorithm 1 for the k cycles [cycle, cycle+k), in which
// no base phase starts or ends and the MSHR file does not change. The
// AD and PMD run once per core and the per-core counters grow by k at
// once; the PCU's per-entry additions are left pending, except that a
// core whose state differs from its cached one first gets its entries
// brought up to date under the old state.
func (l *Logic) advance(cycle, k uint64, m *cache.MSHR) {
	if l.basePhases == 0 && m.Len() == 0 {
		// No base phase in flight and no outstanding miss: no counter
		// or entry can change.
		return
	}
	if a := m.Allocs(); a != l.allocs {
		// New entries start accruing at the current tick.
		l.allocs = a
		slab, live := m.Entries()
		for _, slot := range live {
			if e := &slab[slot]; e.TickMark == 0 {
				e.TickMark = l.tick
			}
		}
	}
	for x := 0; x < l.cores; x++ {
		active := l.expireBase(x, cycle)
		n := m.OutstandingForCore(x)
		if st := &l.state[x]; st.baseActive != (active > 0) || st.n != n {
			l.flushCore(x, m)
			*st = coreState{baseActive: active > 0, n: n, inv: l.inv(n)}
		}
		// NoNewAccess_x set and outstanding misses present ⇒ active
		// pure miss cycle for core x.
		if active == 0 && n > 0 {
			l.activePureMissCycles[x] += k
		}
		// AOCPA: cycles in which more than one access from the core
		// is in flight at this level (base phases + outstanding
		// misses) are overlapping cycles.
		if inFlight := active + n; inFlight > 1 {
			l.overlapCycles[x] += k * uint64(inFlight-1)
		}
	}
	l.tick += k
}

// inv returns 1/n from the table, or 0 for n <= 0.
func (l *Logic) inv(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n >= len(l.invTable) {
		l.growInvTable(n)
	}
	return l.invTable[n]
}

// growInvTable extends invTable to cover divisor n.
func (l *Logic) growInvTable(n int) {
	for i := len(l.invTable); i <= n; i++ {
		if i == 0 {
			l.invTable = append(l.invTable, 0)
			continue
		}
		l.invTable = append(l.invTable, 1.0/float64(i))
	}
}

// coreOf is the core whose state e's cycles follow; entries of an
// out-of-range core count as core 0's.
func (l *Logic) coreOf(e *cache.MSHREntry) int {
	if x := e.Core; x >= 0 && x < l.cores {
		return x
	}
	return 0
}

// flushCore brings every live entry of core x up to date.
func (l *Logic) flushCore(x int, m *cache.MSHR) {
	slab, live := m.Entries()
	for _, slot := range live {
		if e := &slab[slot]; l.coreOf(e) == x {
			l.flush(e)
		}
	}
}

// flush gives e the additions of the cycles since its tick mark, all
// made under its core's cached state: the PCU's per-cycle work, one
// cycle after another, in a tight loop.
func (l *Logic) flush(e *cache.MSHREntry) {
	if e.TickMark == 0 || e.TickMark == l.tick {
		return
	}
	k := l.tick - e.TickMark
	e.TickMark = l.tick
	st := &l.state[l.coreOf(e)]
	if st.n <= 0 {
		return
	}
	inv := st.inv
	switch {
	case st.baseActive:
		// Miss access cycles overlapped by a base access cycle from the
		// same core: hit-miss overlapping (Figure 3). MLP-based cost
		// still charges them.
		e.HitOverlapped = true
		if l.TrackMLP {
			c := e.MLPCost
			for i := k; i > 0; i-- {
				c += inv
			}
			e.MLPCost = c
		}
	case l.TrackMLP:
		// Active pure miss cycles: the PCU's lookup-table divider
		// spreads each across all concurrent pure misses.
		p, c := e.PMC, e.MLPCost
		for i := k; i > 0; i-- {
			p += inv
			c += inv
		}
		e.PMC, e.MLPCost = p, c
		e.PureCycles += k
	default:
		p := e.PMC
		for i := k; i > 0; i-- {
			p += inv
		}
		e.PMC = p
		e.PureCycles += k
	}
}

// Sync brings every outstanding entry of m up to date, so their PMC,
// MLPCost, PureCycles and HitOverlapped can be read between ticks.
func (l *Logic) Sync(m *cache.MSHR) {
	slab, live := m.Entries()
	for _, slot := range live {
		l.flush(&slab[slot])
	}
}

// OnMissComplete implements cache.Tracker: the entry's metrics are
// final once it returns.
func (l *Logic) OnMissComplete(e *cache.MSHREntry, cycle uint64) {
	l.flush(e)
	if l.OnSample == nil {
		return
	}
	l.OnSample(Sample{
		Core:  e.Core,
		PC:    e.PC,
		PMC:   e.PMC,
		Pure:  e.PureCycles > 0,
		Cycle: cycle,
	})
}

// ResetStats zeroes the aggregate counters (end of warmup) without
// disturbing the in-flight base-phase tracking.
func (l *Logic) ResetStats() {
	for i := range l.activePureMissCycles {
		l.activePureMissCycles[i] = 0
		l.overlapCycles[i] = 0
		l.accessCount[i] = 0
	}
}

// ActivePureMissCycles returns core x's accumulated active pure miss
// cycle count. By construction this equals the sum of the PMC values
// of all of x's misses (the invariant of Table II).
func (l *Logic) ActivePureMissCycles(x int) uint64 {
	if x < 0 || x >= l.cores {
		return 0
	}
	return l.activePureMissCycles[x]
}

// AOCPA returns core x's Average Overlapping Cycles Per Access
// (Table XI): total overlapping cycles divided by accesses observed.
func (l *Logic) AOCPA(x int) float64 {
	if x < 0 || x >= l.cores || l.accessCount[x] == 0 {
		return 0
	}
	return float64(l.overlapCycles[x]) / float64(l.accessCount[x])
}

// Accesses returns the number of accesses observed from core x.
func (l *Logic) Accesses(x int) uint64 {
	if x < 0 || x >= l.cores {
		return 0
	}
	return l.accessCount[x]
}
