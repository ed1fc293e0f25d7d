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
// As in the paper's PCU, the shares are fixed-point numbers: 1/N_x
// comes from a lookup table rounded to fracBits fraction bits. Each
// core keeps four running sums: 1/N_x over its active pure miss
// cycles, 1/N_x over all its miss cycles, and the counts of its pure
// cycles and of its miss cycles overlapped by a base phase. An MSHR
// entry records its core's sums when the PML first sees it; its
// metrics are the differences between the sums and those marks.
// Integer addition is exact and associative, so k cycles in one state
// add k times the share at once and the result equals a per-cycle
// walk's exactly. An entry's metrics are set when the miss completes
// or on Sync.
//
// The same per-cycle scan also computes the two secondary statistics
// the paper reports: hit-miss overlapping (Figure 3) and the Average
// Overlapping Cycles Per Access, AOCPA (Table XI).
//
// It also accumulates each entry's MLPCost, the MLP-based cost of
// Qureshi et al. ("A Case for MLP-Aware Cache Replacement", ISCA
// 2006): every miss access cycle is divided equally among the core's
// outstanding misses, whether or not a base access phase hides it.
// The study case's Table I and the M-CARE and SBAR comparison points
// read it; comparing CARE (PMC) against M-CARE isolates the value of
// modelling hit-miss overlap.
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

	// basePhases counts base-access phases in flight across all cores
	// (sum of len(baseEnds[x])). When it is zero and the MSHR file is
	// empty, a tick is a provable no-op and is skipped outright —
	// idle-level cycles dominate many mixes.
	basePhases int

	// invTable is the PCU's lookup table: invTable[n] is 1/n in
	// fixed point, rounded to nearest, for n > 0.
	invTable []uint64

	// sums holds each core's running sums. They only grow, modulo
	// 2^64; statistics resets leave them alone, since entries count
	// from their marks.
	sums [][4]uint64
	// allocs is the MSHR file's Allocs() when its live entries were
	// last marked.
	allocs uint64
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
// AD and PMD run once per core, and the core's counters and running
// sums grow by k cycles' worth at once.
func (l *Logic) advance(cycle, k uint64, m *cache.MSHR) {
	if l.basePhases == 0 && m.Len() == 0 {
		// No base phase in flight and no outstanding miss: no counter
		// or sum can change.
		return
	}
	if a := m.Allocs(); a != l.allocs {
		// New entries count from the sums as they stand now.
		l.allocs = a
		slab, live := m.Entries()
		for _, slot := range live {
			if e := &slab[slot]; !e.Marked {
				e.Marks, e.Marked = l.sums[l.coreOf(e)], true
			}
		}
	}
	for x := 0; x < l.cores; x++ {
		active := l.expireBase(x, cycle)
		n := m.OutstandingForCore(x)
		if n > 0 {
			// Every miss access cycle costs each of the core's N_x
			// misses 1/N_x of MLP-based cost.
			s := &l.sums[x]
			share := l.inv(n) * k
			s[sumMLP] += share
			if active == 0 {
				// NoNewAccess_x set and outstanding misses present ⇒
				// active pure miss cycle for core x, spread across its
				// N_x pure misses.
				s[sumPMC] += share
				s[sumPure] += k
				l.activePureMissCycles[x] += k
			} else {
				// Miss access cycles overlapped by a base access cycle
				// from the same core: hit-miss overlapping (Figure 3).
				s[sumOverlap] += k
			}
		}
		// AOCPA: cycles in which more than one access from the core
		// is in flight at this level (base phases + outstanding
		// misses) are overlapping cycles.
		if inFlight := active + n; inFlight > 1 {
			l.overlapCycles[x] += k * uint64(inFlight-1)
		}
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

// coreOf is the core whose sums e counts from; entries of an
// out-of-range core count as core 0's.
func (l *Logic) coreOf(e *cache.MSHREntry) int {
	if x := e.Core; x >= 0 && x < l.cores {
		return x
	}
	return 0
}

// settle sets e's metrics from its core's running sums. An entry not
// yet marked has seen no cycle since its allocation zeroed them.
func (l *Logic) settle(e *cache.MSHREntry) {
	if !e.Marked {
		return
	}
	s := &l.sums[l.coreOf(e)]
	e.PMC = fixedToFloat(s[sumPMC] - e.Marks[sumPMC])
	e.MLPCost = fixedToFloat(s[sumMLP] - e.Marks[sumMLP])
	e.PureCycles = s[sumPure] - e.Marks[sumPure]
	e.HitOverlapped = s[sumOverlap] != e.Marks[sumOverlap]
}

// fixedToFloat converts a fixed-point value to cycles.
func fixedToFloat(v uint64) float64 { return float64(v) / (1 << fracBits) }

// Sync sets the metrics of every outstanding entry of m, so their
// PMC, MLPCost, PureCycles and HitOverlapped can be read between
// ticks.
func (l *Logic) Sync(m *cache.MSHR) {
	slab, live := m.Entries()
	for _, slot := range live {
		l.settle(&slab[slot])
	}
}

// OnMissComplete implements cache.Tracker: the entry's metrics are
// final once it returns.
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
