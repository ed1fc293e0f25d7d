// Package pmc implements the paper's Pure Miss Contribution
// measurement logic (PML, §IV): the Access Detector (AD), the Pure
// Miss Detector (PMD), and the PMC Calculation Unit (PCU) of
// Algorithm 1.
//
// Algorithm 1 is stated per cycle. For each core it decides whether
// the cycle is an *active pure miss cycle* — the core has outstanding
// misses and no access from that core is inside its base-access (tag
// lookup) phase — and if so it divides the cycle equally among the
// core's outstanding misses, accumulating 1/N_x on each MSHR entry's
// PMC field. A miss that accumulated at least one pure miss cycle is a
// *pure miss*.
//
// As in the paper's PCU, the shares are fixed-point numbers: 1/N_x
// comes from a lookup table rounded to fracBits fraction bits. Each
// core keeps four running sums: 1/N_x over its active pure miss
// cycles, 1/N_x over all its miss cycles, and the counts of its pure
// cycles and of its miss cycles overlapped by a base phase. An MSHR
// entry records its core's sums when it is allocated; its metrics are
// the differences between the sums and those marks. Integer addition
// is exact and associative, so k cycles in one state add k times the
// share at once and the result equals a per-cycle walk's exactly.
//
// The PML is therefore not ticked. It attaches to a cache level (the
// LLC in the paper) as a cache.BulkTracker and keeps a clock per core.
// A core's state changes only at four events: one of its base phases
// starts or ends, or one of its misses is allocated or completed. The
// cache catches the core up (CatchUp) to its own clock before the
// three events it causes; CatchUp splits the span only where the
// core's base phases end. An entry's metrics are set when the miss
// completes or on Sync, which catches every core up first.
//
// The same accounting also computes the two secondary statistics the
// paper reports: hit-miss overlapping (Figure 3) and the Average
// Overlapping Cycles Per Access, AOCPA (Table XI).
//
// It also accumulates each entry's MLPCost, the MLP-based cost of
// Qureshi et al. ("A Case for MLP-Aware Cache Replacement", ISCA
// 2006): every miss access cycle is divided equally among the core's
// outstanding misses, whether or not a base access phase hides it.
// The study case's Table I and the M-CARE comparison point read it;
// comparing CARE (PMC) against M-CARE isolates the value of modelling
// hit-miss overlap.
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

// fracBits is the number of fraction bits of the PCU's fixed-point
// shares and sums. Forty leave 24 integer bits: a miss may accrue up
// to 16.7M cycles of PMC or MLP cost before its difference wraps.
const fracBits = 40

// Indices of a core's running sums, and of the marks an MSHR entry
// records of them.
const (
	sumPMC     = iota // Σ 1/N_x over active pure miss cycles
	sumMLP            // Σ 1/N_x over all miss cycles
	sumPure           // active pure miss cycles
	sumOverlap        // miss cycles overlapped by a base phase
)

// Logic is the PMC measurement logic for one cache level. It
// implements cache.BulkTracker and owns the Marks of the level's MSHR
// entries.
type Logic struct {
	// latency is the level's base access (tag lookup) duration; the
	// AD "monitors for a fixed amount of cycles" (§IV-B).
	latency uint64
	cores   int

	// baseEnds holds, per core, the end cycles (exclusive) of base
	// access phases not yet over at the core's clock. The AD uses it
	// to set the per-core NoNewAccess bit; its length is also the
	// number of concurrently active base phases, which feeds AOCPA.
	baseEnds [][]uint64

	// Per-core aggregate counters.
	activePureMissCycles []uint64
	overlapCycles        []uint64
	accessCount          []uint64

	// OnSample, if set, receives every completed miss. Used by the
	// distribution and predictability experiments (Fig. 5, Table III).
	OnSample func(Sample)

	// invTable is the PCU's lookup table: invTable[n] is 1/n in
	// fixed point, rounded to nearest, for n > 0.
	invTable []uint64

	// sums holds each core's running sums. They only grow, modulo
	// 2^64; statistics resets leave them alone, since entries count
	// from their marks.
	sums [][4]uint64
	// clocks holds each core's clock: the first cycle not yet
	// accounted for it.
	clocks []uint64
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
		invTable:             []uint64{0},
		sums:                 make([][4]uint64, cores),
		clocks:               make([]uint64, cores),
	}
}

// index is the core whose state an event of core belongs to; events
// of an out-of-range core count as core 0's.
func (l *Logic) index(core int) int {
	if core < 0 || core >= l.cores {
		return 0
	}
	return core
}

// OnAccessStart implements cache.BulkTracker: the AD observes a new
// access from core entering its base access phase. The core must be
// caught up to the access.
func (l *Logic) OnAccessStart(core int, kind mem.Kind, cycle uint64) {
	x := l.index(core)
	l.baseEnds[x] = append(l.baseEnds[x], cycle+l.latency)
	l.accessCount[x]++
}

// CatchUp implements cache.BulkTracker: Algorithm 1 for core's cycles
// from its clock up to clock. In those cycles no access of the core
// started and none of its misses was allocated or completed, so N_x is
// constant and the NoNewAccess bit changes only where a base phase
// ends. Base phases are recorded at non-decreasing cycles with a fixed
// latency, so the ends are sorted: CatchUp drops the expired prefix
// and accounts each piece up to the next end in one step.
func (l *Logic) CatchUp(core int, clock uint64, m *cache.MSHR) {
	x := l.index(core)
	from := l.clocks[x]
	if from >= clock {
		return
	}
	l.clocks[x] = clock
	n := m.OutstandingForCore(x)
	all := l.baseEnds[x]
	ends := all
	for from < clock && (n > 0 || len(ends) > 0) {
		i := 0
		for i < len(ends) && ends[i] <= from {
			i++
		}
		ends = ends[i:]
		to := clock
		if len(ends) > 0 && ends[0] < to {
			to = ends[0]
		}
		l.account(x, len(ends), n, to-from)
		from = to
	}
	if len(ends) != len(all) {
		l.baseEnds[x] = append(all[:0], ends...)
	}
}

// account is Algorithm 1 for k cycles of core x with active base
// phases and n outstanding misses: the core's counters and running
// sums grow by k cycles' worth at once.
func (l *Logic) account(x, active, n int, k uint64) {
	if n > 0 {
		// Every miss access cycle costs each of the core's N_x misses
		// 1/N_x of MLP-based cost.
		s := &l.sums[x]
		share := l.inv(n) * k
		s[sumMLP] += share
		if active == 0 {
			// NoNewAccess_x set and outstanding misses present ⇒ active
			// pure miss cycle for core x, spread across its N_x pure
			// misses.
			s[sumPMC] += share
			s[sumPure] += k
			l.activePureMissCycles[x] += k
		} else {
			// Miss access cycles overlapped by a base access cycle from
			// the same core: hit-miss overlapping (Figure 3).
			s[sumOverlap] += k
		}
	}
	// AOCPA: cycles in which more than one access from the core is in
	// flight at this level (base phases + outstanding misses) are
	// overlapping cycles.
	if inFlight := active + n; inFlight > 1 {
		l.overlapCycles[x] += k * uint64(inFlight-1)
	}
}

// inv returns 1/n in fixed point from the table (n > 0).
func (l *Logic) inv(n int) uint64 {
	for len(l.invTable) <= n {
		d := uint64(len(l.invTable))
		l.invTable = append(l.invTable, (1<<fracBits+d/2)/d)
	}
	return l.invTable[n]
}

// OnMissAlloc implements cache.BulkTracker: the new entry counts from
// its core's sums as they stand, the core having just been caught up.
func (l *Logic) OnMissAlloc(e *cache.MSHREntry) {
	e.Marks = l.sums[l.index(e.Core)]
}

// settle sets e's metrics from its core's running sums.
func (l *Logic) settle(e *cache.MSHREntry) {
	s := &l.sums[l.index(e.Core)]
	e.PMC = fixedToFloat(s[sumPMC] - e.Marks[sumPMC])
	e.MLPCost = fixedToFloat(s[sumMLP] - e.Marks[sumMLP])
	e.PureCycles = s[sumPure] - e.Marks[sumPure]
	e.HitOverlapped = s[sumOverlap] != e.Marks[sumOverlap]
}

// fixedToFloat converts a fixed-point value to cycles.
func fixedToFloat(v uint64) float64 { return float64(v) / (1 << fracBits) }

// Sync implements cache.BulkTracker: it catches every core up to
// clock and sets the metrics of every outstanding entry of m, so the
// counters and the entries' PMC, MLPCost, PureCycles and HitOverlapped
// can be read.
func (l *Logic) Sync(clock uint64, m *cache.MSHR) {
	for x := range l.clocks {
		l.CatchUp(x, clock, m)
	}
	slab, live := m.Entries()
	for _, slot := range live {
		l.settle(&slab[slot])
	}
}

// SetClock implements cache.BulkTracker: every core's clock restarts
// at clock.
func (l *Logic) SetClock(clock uint64) {
	for x := range l.clocks {
		l.clocks[x] = clock
	}
}

// OnMissComplete implements cache.BulkTracker: the entry's metrics
// are final once it returns. The entry's core must be caught up to the
// completion.
func (l *Logic) OnMissComplete(e *cache.MSHREntry, cycle uint64) {
	l.settle(e)
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
// disturbing the in-flight base-phase tracking. Every core must be
// caught up first (Sync), so the cycles before the reset stay out of
// the new counts.
func (l *Logic) ResetStats() {
	for i := range l.activePureMissCycles {
		l.activePureMissCycles[i] = 0
		l.overlapCycles[i] = 0
		l.accessCount[i] = 0
	}
}

// ActivePureMissCycles returns core x's accumulated active pure miss
// cycle count, as of x's last catch-up (Sync catches every core up).
// By construction this equals the sum of the PMC values of all of x's
// misses (the invariant of Table II).
func (l *Logic) ActivePureMissCycles(x int) uint64 {
	if x < 0 || x >= l.cores {
		return 0
	}
	return l.activePureMissCycles[x]
}

// AOCPA returns core x's Average Overlapping Cycles Per Access
// (Table XI): total overlapping cycles, as of x's last catch-up,
// divided by accesses observed.
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
