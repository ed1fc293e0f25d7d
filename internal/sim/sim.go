// Package sim wires cores, the three-level cache hierarchy, the
// prefetchers, the DRAM model, and the concurrency trackers into a
// runnable multi-core system, mirroring the paper's simulated
// configuration (Table VII). It is the integration layer every
// experiment and example drives.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"care/internal/cache"
	careplc "care/internal/core/care"
	"care/internal/core/pmc"
	"care/internal/cpu"
	"care/internal/dram"
	"care/internal/faultinject"
	"care/internal/policy"
	"care/internal/prefetch"
	"care/internal/replacement"
	"care/internal/telemetry"
	"care/internal/trace"
)

// CacheGeom describes one cache level.
type CacheGeom struct {
	Sets, Ways  int
	Latency     uint64
	MSHREntries int
}

// Config describes a full system.
type Config struct {
	// Cores is the number of cores (each replays one trace).
	Cores int
	// LLCPolicy selects the LLC replacement policy. Untyped string
	// constants assign directly (cfg.LLCPolicy = "care"); runtime
	// strings should go through policy.Parse, and New validates the
	// value up front, returning *policy.ErrUnknown for names outside
	// the zoo.
	LLCPolicy policy.Policy
	// Prefetch enables the paper's prefetcher pairing: next-line at
	// L1, IP-stride at L2.
	Prefetch bool
	// L1Prefetcher / L2Prefetcher override the pairing by name
	// ("none", "next-line", "ip-stride", "stream"); empty uses the
	// Prefetch default. See internal/prefetch.
	L1Prefetcher, L2Prefetcher string
	// L1, L2, LLC geometry. LLC is shared and should scale with the
	// core count (the paper uses 2MB/core).
	L1, L2, LLC CacheGeom
	// CARE tunes the CARE/M-CARE policy when selected.
	CARE careplc.Config

	// ---- simulation integrity (all off-by-default or passive) ----

	// WatchdogWindow is the forward-progress window in cycles: a run
	// with no retirement and no cache/DRAM event for this long aborts
	// with ErrNoProgress and a diagnostic dump. 0 uses
	// DefaultWatchdogWindow.
	WatchdogWindow uint64
	// MaxCycles caps every run loop's cycle bound (0 = no explicit
	// cap): a run whose global cycle counter reaches it fails with
	// ErrCycleLimit. The CLIs expose it as -max-cycles. A wall-clock
	// limit is a deadline on the context Execute runs under.
	MaxCycles uint64
	// CheckInvariants enables the runtime invariant sweep every
	// InvariantEvery cycles (0 = DefaultInvariantEvery); violations
	// abort with ErrInvariant.
	CheckInvariants bool
	InvariantEvery  uint64
	// Faults enables deterministic fault injection (nil = none). See
	// internal/faultinject.
	Faults *faultinject.Config

	// Telemetry, when non-nil, attaches an interval-resolved metric
	// collector to the run (see internal/telemetry). The collector is
	// bound to this system's components by New and never mutates any
	// simulation state, so results are identical with and without it;
	// with a nil collector the only cost is one nil check per cycle.
	Telemetry *telemetry.Collector
}

// DefaultConfig returns the paper's full-size configuration for the
// given core count: 32KB/8-way L1 (4 cycles, 8 MSHRs), 256KB/8-way L2
// (10 cycles, 32 MSHRs), 2MB/core 16-way LLC (20 cycles, 64 MSHRs).
func DefaultConfig(cores int) Config {
	return scaledConfig(cores, 1)
}

// ScaledConfig shrinks every cache by the scale factor (power of two)
// so full evaluations run quickly on small synthetic footprints while
// preserving relative level sizes, associativity, and latencies.
func ScaledConfig(cores, scale int) Config {
	if scale < 1 {
		scale = 1
	}
	return scaledConfig(cores, scale)
}

func scaledConfig(cores, scale int) Config {
	if cores < 1 {
		cores = 1
	}
	div := func(sets int) int {
		s := sets / scale
		if s < 4 {
			s = 4
		}
		return s
	}
	return Config{
		Cores:     cores,
		LLCPolicy: "lru",
		L1:        CacheGeom{Sets: div(64), Ways: 8, Latency: 4, MSHREntries: 8},
		L2:        CacheGeom{Sets: div(512), Ways: 8, Latency: 10, MSHREntries: 32},
		LLC:       CacheGeom{Sets: div(2048 * cores), Ways: 16, Latency: 20, MSHREntries: 64},
	}
}

// System is a runnable multi-core simulation.
type System struct {
	cfg   Config
	cores []*cpu.Core
	l1s   []*cache.Cache
	l2s   []*cache.Cache
	llc   *cache.Cache
	// caches memoizes allCaches() — every level, private levels first.
	caches []*cache.Cache
	// targets holds the per-core absolute retirement targets the run
	// loop advances to (goalRetired), reused by every run so driving
	// the system in short slices allocates nothing.
	targets []uint64
	mem     *dram.DRAM
	pml     *pmc.Logic
	cycle   uint64
	// cacheWake is a lower bound on every cache's NextEvent, which the
	// caches lower themselves (cache.SetWakeBound). Only step raises it,
	// after a pass that folds in each cache's wake.
	cacheWake uint64

	// Fault injection (nil unless cfg.Faults is enabled).
	injector *faultinject.Injector
	faultMem *faultinject.Memory

	// Interval telemetry (nil unless cfg.Telemetry is set).
	tele *telemetry.Collector

	// frameList is the checkpoint's frames after meta (buildFrames).
	frameList []frame

	// Forward-progress watchdog state.
	watchSig  uint64
	watchLast uint64
	// pmcSlack is the PMC accrued by in-flight misses at the last
	// ResetStats, the offset the ΣPMC invariant must allow for.
	pmcSlack float64
	// ctx is the context Execute runs the attempt under, and done its
	// Done channel; both are nil outside Execute, where the guard's
	// receive on done never fires.
	ctx  context.Context
	done <-chan struct{}
}

// params returns the cache parameters of a level with this geometry,
// named name and reached by cores cores.
func (g CacheGeom) params(name string, cores int) cache.Params {
	return cache.Params{
		Name: name, Sets: g.Sets, Ways: g.Ways,
		Latency: g.Latency, MSHREntries: g.MSHREntries, Cores: cores,
	}
}

// Validate returns the first reason New refuses cfg: fewer than one
// core, an LLC policy outside the zoo (*policy.ErrUnknown), or a cache
// geometry cache.New refuses (an error wrapping cache.ErrGeometry),
// such as the LLC of a core count whose set count is not a power of
// two.
func (cfg Config) Validate() error {
	if cfg.Cores < 1 {
		return fmt.Errorf("sim: need at least one core, got %d", cfg.Cores)
	}
	if err := cfg.LLCPolicy.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, p := range []cache.Params{cfg.L1.params("L1D", 1), cfg.L2.params("L2", 1), cfg.LLC.params("LLC", cfg.Cores)} {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("sim: %d cores: %w", cfg.Cores, err)
		}
	}
	return nil
}

// New builds a system running one trace per core. len(traces) must
// equal cfg.Cores, and cfg must pass Validate.
func New(cfg Config, traces []trace.Reader) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(traces) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d cores but %d traces", cfg.Cores, len(traces))
	}

	var llcPolicy cache.Policy
	switch cfg.LLCPolicy {
	case policy.CARE:
		llcPolicy = careplc.New(cfg.CARE)
	case policy.MCARE:
		llcPolicy = careplc.NewMCARE(cfg.CARE)
	default:
		p, err := replacement.New(string(cfg.LLCPolicy), cfg.Cores)
		if err != nil {
			return nil, err
		}
		llcPolicy = p
	}

	s := &System{cfg: cfg, targets: make([]uint64, cfg.Cores)}
	if cfg.Faults.Enabled() {
		s.injector = faultinject.New(*cfg.Faults)
		wrapped := make([]trace.Reader, len(traces))
		for i, t := range traces {
			wrapped[i] = s.injector.WrapTrace(t)
		}
		traces = wrapped
	}

	// One DRAM channel for one core, two otherwise (Table VII).
	channels := 2
	if cfg.Cores == 1 {
		channels = 1
	}
	s.mem = dram.New(dram.DefaultParams(channels))

	s.llc = cache.New(cfg.LLC.params("LLC", cfg.Cores), llcPolicy)
	if s.injector != nil {
		// Interpose drop/delay faults between the LLC and DRAM.
		s.faultMem = s.injector.WrapMemory(s.mem)
		s.llc.SetLower(s.faultMem)
	} else {
		s.llc.SetLower(s.mem)
	}

	// The PML measures PMC at the LLC (the paper's target level) and,
	// in the same pass, the MLP-based cost M-CARE consumes.
	s.pml = pmc.New(cfg.LLC.Latency, cfg.Cores)
	s.llc.AddBulkTracker(s.pml)

	for i := 0; i < cfg.Cores; i++ {
		l2 := cache.New(cfg.L2.params(fmt.Sprintf("L2-%d", i), 1), replacement.NewLRU())
		l2.SetLower(s.llc)
		l1 := cache.New(cfg.L1.params(fmt.Sprintf("L1D-%d", i), 1), replacement.NewLRU())
		l1.SetLower(l2)
		l1Name, l2Name := cfg.L1Prefetcher, cfg.L2Prefetcher
		if cfg.Prefetch {
			if l1Name == "" {
				l1Name = "next-line"
			}
			if l2Name == "" {
				l2Name = "ip-stride"
			}
		}
		if pf, err := prefetch.New(l1Name); err != nil {
			return nil, err
		} else if pf != nil {
			l1.SetPrefetcher(pf)
		}
		if pf, err := prefetch.New(l2Name); err != nil {
			return nil, err
		} else if pf != nil {
			l2.SetPrefetcher(pf)
		}
		s.cores = append(s.cores, cpu.New(i, cpu.DefaultParams(), traces[i], l1))
		s.l1s = append(s.l1s, l1)
		s.l2s = append(s.l2s, l2)
	}
	s.cacheWake = math.MaxUint64
	for _, c := range s.allCaches() {
		c.SetWakeBound(&s.cacheWake)
	}
	if cfg.Telemetry != nil {
		if err := cfg.Telemetry.Bind(s.cores, s.llc, s.mem); err != nil {
			return nil, err
		}
		s.tele = cfg.Telemetry
	}
	s.frameList = s.buildFrames()
	return s, nil
}

// Cycle returns the current simulation cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// LLC exposes the shared cache for experiments.
func (s *System) LLC() *cache.Cache { return s.llc }

// PML exposes the PMC measurement logic (sample hooks, AOCPA).
func (s *System) PML() *pmc.Logic { return s.pml }

// DRAM exposes the memory model.
func (s *System) DRAM() *dram.DRAM { return s.mem }

// Core returns core i.
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// Telemetry returns the attached interval collector, or nil. Callers
// driving RunInstructions directly must Close it themselves to flush
// the final partial interval (sim.Execute does this automatically).
func (s *System) Telemetry() *telemetry.Collector { return s.tele }

// CAREStats returns the CARE policy counters when the LLC runs
// CARE/M-CARE, else nil.
func (s *System) CAREStats() *careplc.Stats {
	if p, ok := s.llc.Policy().(*careplc.Policy); ok {
		return p.Stats()
	}
	return nil
}

// advance moves the system forward by at least one cycle, never past
// limit. When no component can change state before some later cycle
// it jumps straight there (see horizon); otherwise it steps one cycle.
// Either way the state it reaches is the one plain stepping reaches.
func (s *System) advance(limit uint64) {
	if t := s.horizon(limit); t > s.cycle {
		s.skipTo(t)
		return
	}
	s.step()
}

// horizon returns the earliest cycle T in [s.cycle, limit] at which a
// step can change more than counters and the LLC trackers'
// accumulators: every step from the current cycle up to T is dead.
// The bounds, one per component that can act on its own:
//
//   - an awake core (one that may retire or dispatch): now;
//   - the caches' un-parked queue heads: the stored lower bound on
//     their ready cycles (cacheWake), which no cache is polled for;
//   - DRAM: now when a write drain is due, else its next read completion;
//   - the fault clock: held DRAM responses, the MSHR-saturation onset
//     (now from then on), and the metadata flip;
//   - telemetry: one cycle before its next sample or snapshot, since
//     step(c) ticks the collector with c+1;
//   - the guard: the next watchdogStride multiple, so every check
//     guard makes after a step still runs at its cycle.
//
// A dead step cannot move any of these bounds: only a live step does.
func (s *System) horizon(limit uint64) uint64 {
	now := s.cycle
	for _, c := range s.cores {
		if c.Awake() {
			return now
		}
	}
	t := min(limit, (now/watchdogStride+1)*watchdogStride, s.cacheWake)
	if t <= now {
		return now
	}
	t = min(t, s.mem.NextEvent(now))
	if s.injector != nil {
		t = min(t, s.injector.NextFault(now), s.faultMem.NextRelease())
	}
	if s.tele != nil {
		next := s.tele.NextTick()
		if next <= now+1 {
			return now
		}
		t = min(t, next-1)
	}
	return max(t, now)
}

// skipTo jumps from the current cycle to t across dead steps (see
// horizon). Only the LLC's clock moves, because its bulk trackers read
// it; every other component accounts the window lazily, like a cycle
// in which step passed it over.
func (s *System) skipTo(t uint64) {
	s.llc.SkipCycles(t)
	s.cycle = t
}

// step advances the system one cycle, ticking in a fixed order (fault
// clock, cores, L1s, L2s, LLC, DRAM, fault memory) only the components
// that can change state in it: awake cores, caches that are Due, and
// DRAM when its next event has come. Each component is checked at its
// own slot, so work an earlier slot posts this cycle is seen. A
// component passed over accounts the cycle lazily (the counters a Tick
// of it would move: its SkipCycles) when it is next ticked or read;
// ticking an idle component is exactly equivalent to skipping it, so a
// component may be woken early but never late. The LLC's clock still
// moves every cycle, since its bulk trackers read it: cycle before its
// slot, cycle+1 after.
//
// While cacheWake is past the cycle no cache is Due, unless the LLC
// has a ticked tracker (only the LLC is reachable to attach one), so
// the cache pass is skipped whole. Otherwise the pass resets the bound
// and folds in each cache's wake at the cache's own slot; a wake that
// moves later in the cycle (an access, a fill) lowers the bound itself.
func (s *System) step() {
	cycle := s.cycle
	if s.injector != nil {
		s.injector.OnCycle(cycle, s.llc)
	}
	for _, c := range s.cores {
		if c.Awake() {
			c.Tick(cycle)
		}
	}
	if s.cacheWake <= cycle || s.llc.Due(cycle) {
		s.tickCaches(cycle)
	} else {
		s.llc.SkipCycles(cycle + 1)
	}
	if s.mem.NextEvent(cycle) <= cycle {
		s.mem.Tick(cycle)
	}
	if s.faultMem != nil {
		s.faultMem.Tick(cycle)
	}
	s.cycle++
	if s.tele != nil && s.tele.NextTick() <= s.cycle {
		s.catchUp()
		s.tele.Tick(s.cycle)
	}
}

// tickCaches is step's cache pass: it ticks the Due caches in order
// (L1s, L2s, LLC) and rebuilds cacheWake from their wakes.
func (s *System) tickCaches(cycle uint64) {
	s.cacheWake = math.MaxUint64
	for _, c := range s.l1s {
		if c.Due(cycle) {
			c.Tick(cycle)
		}
		s.cacheWake = min(s.cacheWake, c.NextEvent())
	}
	for _, c := range s.l2s {
		if c.Due(cycle) {
			c.Tick(cycle)
		}
		s.cacheWake = min(s.cacheWake, c.NextEvent())
	}
	if s.llc.Due(cycle) {
		s.llc.Tick(cycle)
	} else {
		s.llc.SkipCycles(cycle + 1)
	}
	s.cacheWake = min(s.cacheWake, s.llc.NextEvent())
}

// catchUp brings every lazily accounted counter current at the
// current cycle: each core's cycle and ROB-stall counts, each parked
// queue's MSHR-stall count, and the LLC's bulk trackers. Every reader
// of those counters (Snapshot, ResetStats, the diagnostic dump, the
// invariant check, checkpoint writing, telemetry samples) calls it
// first.
func (s *System) catchUp() {
	for _, c := range s.cores {
		c.SkipCycles(s.cycle)
	}
	for _, c := range s.allCaches() {
		c.SkipCycles(s.cycle)
	}
	s.llc.SyncTrackers()
}

// guard runs the integrity checks on the watchdog stride: a done
// context, component errors, forward progress and the opt-in invariant
// sweep. The run loop calls it after every advance; the loop itself
// checks the cycle bound.
func (s *System) guard() error {
	if s.cycle%watchdogStride != 0 {
		return nil
	}
	select {
	case <-s.done:
		// A drain runs on to the next scheduled checkpoint instead.
		if !errors.Is(context.Cause(s.ctx), ErrDrain) {
			return s.failf(ErrInterrupted, "stop requested at cycle %d", s.cycle)
		}
	default:
	}
	if s.injector != nil && s.injector.ShouldKill(s.cycle) {
		return s.failf(faultinject.ErrKilled, "injected kill fired at cycle %d", s.cycle)
	}
	if err := s.componentErr(); err != nil {
		return err
	}
	if err := s.checkProgress(); err != nil {
		return err
	}
	if s.cfg.CheckInvariants {
		every := s.cfg.InvariantEvery
		if every == 0 {
			every = DefaultInvariantEvery
		}
		if s.cycle%every < watchdogStride {
			if err := s.checkInvariantsErr(); err != nil {
				return err
			}
		}
	}
	return nil
}

// A goal is what the run loop advances the system until.
type goal uint8

const (
	// goalRetired: every core has reached its entry in s.targets or
	// exhausted its trace.
	goalRetired goal = iota
	// goalDrained: no cache, DRAM or fault-memory queue holds work.
	goalDrained
	// goalQuiesced: drained, and every core quiesced too.
	goalQuiesced
)

// run is the one run loop: it advances until g holds, running the
// guard after every advance, and then returns the first latched
// component error (a core whose trace died is exhausted, and would
// otherwise meet its retirement target silently). Its bound is limit,
// capped at Config.MaxCycles when that is set; a run that reaches the
// bound before g holds fails at the bound's cycle (see boundErr), so
// no run ends short of its goal without saying so.
func (s *System) run(g goal, limit uint64) error {
	if m := s.cfg.MaxCycles; m > 0 && m < limit {
		limit = m
	}
	for {
		// goalRetired is checked inline, not through a call: the
		// check follows every advance of every simulated instruction.
		done := true
		if g == goalRetired {
			for i, c := range s.cores {
				if c.Retired() < s.targets[i] && !c.Exhausted() {
					done = false
					break
				}
			}
		} else {
			done = g == goalDrained && s.drained() || g == goalQuiesced && s.quiescent()
		}
		if done {
			break
		}
		s.advance(limit)
		if s.cycle >= limit {
			return s.boundErr(g, limit)
		}
		if err := s.guard(); err != nil {
			return err
		}
	}
	return s.componentErr()
}

// boundErr is the failure of a run that reached its bound, limit,
// before g held: ErrCycleLimit naming Config.MaxCycles when that is
// the bound, ErrQuiesce for a quiesce, and ErrCycleLimit naming the
// loop's own bound otherwise.
func (s *System) boundErr(g goal, limit uint64) error {
	switch {
	case limit == s.cfg.MaxCycles:
		return s.failf(ErrCycleLimit, "cycle %d reached the configured cap %d", s.cycle, s.cfg.MaxCycles)
	case g == goalQuiesced:
		return s.failf(ErrQuiesce, "system still busy after %d drain cycles", drainLimit)
	case g == goalDrained:
		return s.failf(ErrCycleLimit, "queues still busy at cycle %d, the drain bound of %d cycles", s.cycle, drainLimit)
	default:
		return s.failf(ErrCycleLimit,
			"cores short of their retirement targets at cycle %d, the run's bound (%d cycles per instruction left to retire, plus %d)",
			s.cycle, maxCyclesPerInstr, loopSlack)
	}
}

// RunInstructions advances until every core has retired at least n
// more instructions (or exhausted its trace). It returns the cycles
// executed and the first failure: a *FailureError wrapping
// ErrNoProgress, ErrInvariant or ErrCycleLimit (Config.MaxCycles, or
// the run's own bound of 400 cycles per instruction still to retire
// plus 1M, reached short of the targets), or a propagated component
// error (e.g. a corrupt trace terminating a core's stream).
func (s *System) RunInstructions(n uint64) (uint64, error) {
	start := s.cycle
	for i, c := range s.cores {
		s.targets[i] = c.Retired() + n
	}
	err := s.runUntilRetired()
	return s.cycle - start, err
}

// Drain runs until every queue is empty (after the traces end),
// bounded by drainLimit cycles. It fails as RunInstructions does.
func (s *System) Drain() error {
	return s.run(goalDrained, s.cycle+drainLimit)
}

// ResetStats zeroes every component's counters; call at the end of
// warmup so reported numbers cover only the measured region.
func (s *System) ResetStats() {
	s.catchUp()
	for _, c := range s.cores {
		c.ResetStats()
	}
	for _, c := range s.l1s {
		c.ResetStats()
	}
	for _, c := range s.l2s {
		c.ResetStats()
	}
	s.llc.ResetStats()
	s.mem.ResetStats()
	s.pml.ResetStats()
	if s.tele != nil {
		// Interval numbering and counter baselines restart with the
		// measured region.
		s.tele.Rebase(s.cycle)
	}
	// In-flight misses keep PMC accrued before the reset; the ΣPMC
	// invariant must discount it.
	s.pmcSlack = s.inflightPMC()
}

// Result is the summary of one simulation run.
type Result struct {
	// Policy is the LLC policy name.
	Policy string
	// Cycles executed during the measured region.
	Cycles uint64
	// IPC per core and the aggregate.
	CoreIPC []float64
	// Instructions retired per core.
	CoreInstructions []uint64
	// LLC counters (measured region).
	LLC cache.Stats
	// LLCPMR is the pure miss rate at the LLC.
	LLCPMR float64
	// MeanPMC is the average PMC per LLC miss.
	MeanPMC float64
	// AOCPA per core.
	AOCPA []float64
	// DRAM counters.
	DRAM dram.Stats
}

// Snapshot captures the current statistics as a Result.
func (s *System) Snapshot() Result {
	s.catchUp()
	r := Result{
		Policy:  string(s.cfg.LLCPolicy),
		LLC:     *s.llc.Stats(),
		LLCPMR:  s.llc.Stats().PureMissRate(),
		MeanPMC: s.llc.Stats().MeanPMC(),
		DRAM:    *s.mem.Stats(),
	}
	for i, c := range s.cores {
		st := c.Stats()
		r.CoreIPC = append(r.CoreIPC, st.IPC())
		r.CoreInstructions = append(r.CoreInstructions, st.Retired)
		r.AOCPA = append(r.AOCPA, s.pml.AOCPA(i))
		if st.Cycles > r.Cycles {
			r.Cycles = st.Cycles
		}
	}
	return r
}

// IPCSum returns the aggregate IPC across cores.
func (r Result) IPCSum() float64 {
	sum := 0.0
	for _, v := range r.CoreIPC {
		sum += v
	}
	return sum
}

// closeTelemetry flushes the final partial telemetry interval.
func (s *System) closeTelemetry() {
	if s.tele == nil {
		return
	}
	s.catchUp()
	s.tele.Close(s.cycle)
}
