package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"care/internal/cache"
	"care/internal/cpu"
	"care/internal/faultinject"
)

// Sentinel errors for the run-loop failure modes. They are always
// wrapped in a *FailureError carrying the diagnostic dump; match them
// with errors.Is.
var (
	// ErrNoProgress means the forward-progress watchdog saw no
	// retirement and no cache/DRAM event for the configured window:
	// the system is deadlocked or livelocked.
	ErrNoProgress = errors.New("sim: no forward progress")
	// ErrCycleLimit means a run reached its cycle bound before its
	// goal: Config.MaxCycles, or the run's own worst case.
	ErrCycleLimit = errors.New("sim: cycle limit exceeded")
	// ErrInvariant means the opt-in runtime invariant checker found a
	// violated invariant (corrupted state or a simulator bug).
	ErrInvariant = errors.New("sim: invariant violation")
)

// FailureError is the structured error the run loop returns when a
// simulation cannot continue: a sentinel reason, a human-readable
// detail line, and a full diagnostic snapshot of the system at the
// moment of failure.
type FailureError struct {
	// Reason is one of the sentinel errors above, or a propagated
	// component error (core trace error, cache internal failure).
	Reason error
	// Detail describes the specific trigger.
	Detail string
	// Diag is the state snapshot taken when the failure was detected.
	Diag Diagnostic
}

// Error implements error; it includes the diagnostic dump so a bare
// log line from a failed CLI run is already actionable.
func (e *FailureError) Error() string {
	return fmt.Sprintf("%v: %s\n%s", e.Reason, e.Detail, e.Diag.String())
}

// Unwrap lets errors.Is match the sentinel reason.
func (e *FailureError) Unwrap() error { return e.Reason }

// CoreDiag is one core's slice of the diagnostic dump.
type CoreDiag struct {
	ID        int
	Retired   uint64
	ROBLen    int
	Exhausted bool
	Err       error
	Head      cpu.ROBHead
}

// CacheDiag is one cache's slice of the diagnostic dump.
type CacheDiag struct {
	Name              string
	MSHRUsed, MSHRCap int
	QueueLen          int
	MSHRStallCycles   uint64
	Err               error
}

// DRAMDiag is the memory model's slice of the diagnostic dump.
type DRAMDiag struct {
	PendingReads, QueuedWrites int
	Reads, Writes              uint64
}

// Diagnostic is a structured snapshot of the simulation at a failure:
// enough to tell a deadlocked run from a slow one without re-running
// under a debugger.
type Diagnostic struct {
	Cycle  uint64
	Cores  []CoreDiag
	Caches []CacheDiag
	DRAM   DRAMDiag
	// Faults reports injected-fault counts when fault injection is
	// enabled, nil otherwise.
	Faults *faultinject.Stats
}

// String renders the dump, one line per component.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  diagnostic @ cycle %d\n", d.Cycle)
	for _, c := range d.Cores {
		fmt.Fprintf(&b, "  core %d: retired=%d rob=%d exhausted=%v", c.ID, c.Retired, c.ROBLen, c.Exhausted)
		if c.Head.Valid {
			op := "store"
			if c.Head.IsLoad {
				op = "load"
			}
			fmt.Fprintf(&b, " head={%s pc=%#x addr=%#x issued=%v done=%v}",
				op, uint64(c.Head.PC), uint64(c.Head.Addr), c.Head.Issued, c.Head.Done)
		}
		if c.Err != nil {
			fmt.Fprintf(&b, " err=%v", c.Err)
		}
		b.WriteByte('\n')
	}
	for _, c := range d.Caches {
		fmt.Fprintf(&b, "  %s: mshr=%d/%d queue=%d mshr-stall-cycles=%d",
			c.Name, c.MSHRUsed, c.MSHRCap, c.QueueLen, c.MSHRStallCycles)
		if c.Err != nil {
			fmt.Fprintf(&b, " err=%v", c.Err)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  dram: pending-reads=%d queued-writes=%d reads=%d writes=%d",
		d.DRAM.PendingReads, d.DRAM.QueuedWrites, d.DRAM.Reads, d.DRAM.Writes)
	if d.Faults != nil {
		fmt.Fprintf(&b, "\n  faults: flipped-records=%d trace-corruptions=%d dropped=%d delayed=%d mshr-claimed=%d meta-flips=%d",
			d.Faults.RecordsFlipped, d.Faults.TraceCorruptions, d.Faults.ResponsesDropped,
			d.Faults.ResponsesDelayed, d.Faults.MSHREntriesClaimed, d.Faults.MetadataFlips)
	}
	return b.String()
}

// Diagnostic captures the current state of every component.
func (s *System) Diagnostic() Diagnostic {
	s.catchUp()
	d := Diagnostic{Cycle: s.cycle}
	for _, c := range s.cores {
		d.Cores = append(d.Cores, CoreDiag{
			ID: c.ID(), Retired: c.Retired(), ROBLen: c.ROBLen(),
			Exhausted: c.Exhausted(), Err: c.Err(), Head: c.Head(),
		})
	}
	for _, c := range s.allCaches() {
		d.Caches = append(d.Caches, CacheDiag{
			Name: c.Name, MSHRUsed: c.MSHRFile().Len(), MSHRCap: c.MSHRFile().Capacity(),
			QueueLen: c.QueueLen(), MSHRStallCycles: c.Stats().MSHRStallCycles, Err: c.Err(),
		})
	}
	d.DRAM = DRAMDiag{
		PendingReads: s.mem.PendingReads(), QueuedWrites: s.mem.QueuedWrites(),
		Reads: s.mem.Stats().Reads, Writes: s.mem.Stats().Writes,
	}
	if s.injector != nil {
		d.Faults = s.injector.Stats()
	}
	return d
}

// failf builds a FailureError with a fresh diagnostic snapshot.
func (s *System) failf(reason error, format string, args ...interface{}) error {
	return &FailureError{Reason: reason, Detail: fmt.Sprintf(format, args...), Diag: s.Diagnostic()}
}

// ---- forward-progress watchdog ----

// DefaultWatchdogWindow is the no-event window, in cycles, after
// which a run is declared wedged when Config.WatchdogWindow is 0. It
// is orders of magnitude beyond any legitimate stall (a DRAM row miss
// behind a full write queue is a few hundred cycles).
const DefaultWatchdogWindow = 100_000

// watchdogStride is how often (in cycles) the run loop samples the
// progress signature; detection latency is window + one stride.
const watchdogStride = 64

// progressSig folds every forward-progress indicator into one value:
// instructions retired, cache activity (accesses, fills, merges), and
// DRAM traffic. Any change between samples counts as progress; a
// stable signature means nothing observable happened.
func (s *System) progressSig() uint64 {
	var sig uint64
	for _, c := range s.cores {
		sig += c.Retired()
	}
	cacheSig := func(c *cache.Cache) {
		st := c.Stats()
		sig += st.DemandAccesses + st.PrefetchAccesses + st.WritebackAccesses +
			st.Fills + st.MSHRMerges + st.Invalidations
	}
	for _, c := range s.l1s {
		cacheSig(c)
	}
	for _, c := range s.l2s {
		cacheSig(c)
	}
	cacheSig(s.llc)
	mst := s.mem.Stats()
	sig += mst.Reads + mst.Writes + mst.RowHits + mst.RowMisses
	return sig
}

// allCaches lists every cache level, private levels first. The list
// is built once and memoized: guard paths walk it every cycle, so
// rebuilding it would be the simulator's single largest allocation
// source.
func (s *System) allCaches() []*cache.Cache {
	if s.caches == nil {
		s.caches = make([]*cache.Cache, 0, len(s.l1s)+len(s.l2s)+1)
		s.caches = append(s.caches, s.l1s...)
		s.caches = append(s.caches, s.l2s...)
		s.caches = append(s.caches, s.llc)
	}
	return s.caches
}

// checkProgress samples the progress signature and returns an
// ErrNoProgress failure when it has been flat for the configured
// window. ResetStats moves the signature, which safely re-arms the
// watchdog at the warmup/measure boundary.
func (s *System) checkProgress() error {
	sig := s.progressSig()
	if sig != s.watchSig {
		s.watchSig = sig
		s.watchLast = s.cycle
		return nil
	}
	window := s.cfg.WatchdogWindow
	if window == 0 {
		window = DefaultWatchdogWindow
	}
	if s.cycle-s.watchLast < window {
		return nil
	}
	return s.failf(ErrNoProgress,
		"no retirement or cache/DRAM event for %d cycles (window %d)", s.cycle-s.watchLast, window)
}

// componentErr surfaces the first latched component failure: a core
// whose trace stream died, or a cache that hit an internal invariant
// violation.
func (s *System) componentErr() error {
	for _, c := range s.cores {
		if err := c.Err(); err != nil {
			return s.failf(err, "core %d terminated its stream", c.ID())
		}
	}
	for _, c := range s.allCaches() {
		if err := c.Err(); err != nil {
			return s.failf(err, "cache %s latched an internal failure", c.Name)
		}
	}
	return nil
}

// ---- runtime invariant checker ----

// DefaultInvariantEvery is the cycle interval between invariant
// sweeps when Config.CheckInvariants is set and InvariantEvery is 0.
const DefaultInvariantEvery = 2048

// CheckInvariants runs the opt-in runtime invariant sweep the
// DESIGN.md testing strategy promises:
//
//   - every cache: hits+misses == accesses per traffic class, MSHR
//     occupancy ≤ capacity with consistent per-core counts, and every
//     valid block's tag maps back to the set holding it;
//   - the LLC policy's own invariants when it exposes them (CARE:
//     EPV ∈ [0,3], SHT counters within their 3-bit fields);
//   - ΣPMC == active pure-miss cycles (Table II): completed plus
//     in-flight PMC equals the PML's per-core pure-miss cycle count,
//     up to float rounding and the warmup-reset offset.
func (s *System) CheckInvariants() error {
	s.catchUp()
	for _, c := range s.allCaches() {
		if err := c.CheckIntegrity(); err != nil {
			return err
		}
	}
	if p, ok := s.llc.Policy().(interface{ CheckInvariants() error }); ok {
		if err := p.CheckInvariants(); err != nil {
			return err
		}
	}
	var apmc uint64
	for x := 0; x < s.cfg.Cores; x++ {
		apmc += s.pml.ActivePureMissCycles(x)
	}
	total := s.llc.Stats().PMCSum + s.inflightPMC() - s.pmcSlack
	if tol := 1.0 + 1e-6*float64(apmc); math.Abs(total-float64(apmc)) > tol {
		return fmt.Errorf("ΣPMC %.3f (completed %.3f + in-flight, slack %.3f) != active pure-miss cycles %d",
			total, s.llc.Stats().PMCSum, s.pmcSlack, apmc)
	}
	return nil
}

// inflightPMC sums the PMC accrued by outstanding LLC misses.
func (s *System) inflightPMC() float64 {
	s.llc.SyncTrackers()
	var sum float64
	s.llc.MSHRFile().ForEach(func(e *cache.MSHREntry) { sum += e.PMC })
	return sum
}

// checkInvariantsErr wraps a violation as a structured failure.
func (s *System) checkInvariantsErr() error {
	if err := s.CheckInvariants(); err != nil {
		return s.failf(ErrInvariant, "%v", err)
	}
	return nil
}
