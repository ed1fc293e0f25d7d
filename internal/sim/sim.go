// Package sim wires cores, the three-level cache hierarchy, the
// prefetchers, the DRAM model, and the concurrency trackers into a
// runnable multi-core system, mirroring the paper's simulated
// configuration (Table VII). It is the integration layer every
// experiment and example drives.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"

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
	// DefaultWatchdogWindow; DisableWatchdog turns detection off.
	WatchdogWindow  uint64
	DisableWatchdog bool
	// MaxCycles aborts the run with ErrCycleLimit once the global
	// cycle counter reaches it (0 = no explicit cap). The CLIs expose
	// it as -max-cycles.
	MaxCycles uint64
	// WallClockTimeout aborts the run with ErrTimeout once the wall
	// clock (measured from the first executed cycle) exceeds it (0 =
	// none). It never alters results of runs that finish in time.
	WallClockTimeout time.Duration
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
	// targets is RunInstructions' reusable per-core retirement-target
	// scratch, so driving the system in short slices allocates nothing.
	targets []uint64
	mem     *dram.DRAM
	pml     *pmc.Logic
	cycle   uint64

	// Fault injection (nil unless cfg.Faults is enabled).
	injector *faultinject.Injector
	faultMem *faultinject.Memory

	// Interval telemetry (nil unless cfg.Telemetry is set).
	tele *telemetry.Collector

	// Forward-progress watchdog state.
	watchSig  uint64
	watchLast uint64
	// pmcSlack is the PMC accrued by in-flight misses at the last
	// ResetStats, the offset the ΣPMC invariant must allow for.
	pmcSlack float64
	// wallStart anchors WallClockTimeout; set on the first cycle.
	wallStart time.Time
	// interrupted is set by Interrupt (from any goroutine, e.g. a
	// signal handler) and consumed one-shot by the guard.
	interrupted atomic.Bool
	// drainReq is set by DrainAtNextCheckpoint and honoured by the
	// schedule driver at segment boundaries only, so the stop lands on
	// a scheduled checkpoint.
	drainReq atomic.Bool
}

// New builds a system running one trace per core. len(traces) must
// equal cfg.Cores.
func New(cfg Config, traces []trace.Reader) (*System, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("sim: need at least one core, got %d", cfg.Cores)
	}
	if len(traces) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d cores but %d traces", cfg.Cores, len(traces))
	}

	if err := cfg.LLCPolicy.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
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

	s := &System{cfg: cfg}
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

	s.llc = cache.New(cache.Params{
		Name: "LLC", Sets: cfg.LLC.Sets, Ways: cfg.LLC.Ways,
		Latency: cfg.LLC.Latency, MSHREntries: cfg.LLC.MSHREntries,
		Cores: cfg.Cores,
	}, llcPolicy)
	if s.injector != nil {
		// Interpose drop/delay faults between the LLC and DRAM.
		s.faultMem = s.injector.WrapMemory(s.mem)
		s.llc.SetLower(s.faultMem)
	} else {
		s.llc.SetLower(s.mem)
	}

	// The PML measures PMC at the LLC (the paper's target level) and,
	// in the same pass, the MLP-based cost SBAR/M-CARE consume.
	s.pml = pmc.New(cfg.LLC.Latency, cfg.Cores)
	s.llc.AddTracker(s.pml)

	for i := 0; i < cfg.Cores; i++ {
		l2 := cache.New(cache.Params{
			Name: fmt.Sprintf("L2-%d", i), Sets: cfg.L2.Sets, Ways: cfg.L2.Ways,
			Latency: cfg.L2.Latency, MSHREntries: cfg.L2.MSHREntries, Cores: 1,
		}, replacement.NewLRU())
		l2.SetLower(s.llc)
		l1 := cache.New(cache.Params{
			Name: fmt.Sprintf("L1D-%d", i), Sets: cfg.L1.Sets, Ways: cfg.L1.Ways,
			Latency: cfg.L1.Latency, MSHREntries: cfg.L1.MSHREntries, Cores: 1,
		}, replacement.NewLRU())
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
	if cfg.Telemetry != nil {
		if err := cfg.Telemetry.Bind(s.cores, s.llc, s.mem); err != nil {
			return nil, err
		}
		s.tele = cfg.Telemetry
	}
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
//   - a core that can retire or dispatch: now;
//   - each cache's un-parked queue head: its ready cycle;
//   - DRAM: now when a write drain is due, else its next read completion;
//   - the fault clock: held DRAM responses, the MSHR-saturation onset
//     (now from then on), and the metadata flip;
//   - telemetry: one cycle before its next sample or snapshot, since
//     step(c) ticks the collector with c+1;
//   - the guard: the next watchdogStride multiple and MaxCycles, so
//     every check guard makes after a step still runs at its cycle.
//
// A dead step cannot move any of these bounds: only a live step does.
func (s *System) horizon(limit uint64) uint64 {
	now := s.cycle
	for _, c := range s.cores {
		if !c.Stalled() {
			return now
		}
	}
	t := min(limit, (now/watchdogStride+1)*watchdogStride)
	if m := s.cfg.MaxCycles; m > 0 {
		t = min(t, m)
	}
	for _, c := range s.allCaches() {
		if t = min(t, c.NextEvent()); t <= now {
			return now
		}
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
// horizon), making in bulk exactly the counter updates those steps
// would have made: core cycle and ROB-stall counts, parked queues'
// MSHR-stall counts, and one tracker Tick per cache per cycle, in
// cycle order, so the PML accumulates its floats in the same order.
func (s *System) skipTo(t uint64) {
	for _, c := range s.cores {
		c.SkipCycles(t - s.cycle)
	}
	for _, c := range s.allCaches() {
		c.SkipCycles(s.cycle, t)
	}
	s.cycle = t
}

// step advances the whole system one cycle.
func (s *System) step() {
	if s.injector != nil {
		s.injector.OnCycle(s.cycle, s.llc)
	}
	for _, c := range s.cores {
		c.Tick(s.cycle)
	}
	for _, c := range s.l1s {
		c.Tick(s.cycle)
	}
	for _, c := range s.l2s {
		c.Tick(s.cycle)
	}
	s.llc.Tick(s.cycle)
	s.mem.Tick(s.cycle)
	if s.faultMem != nil {
		s.faultMem.Tick(s.cycle)
	}
	s.cycle++
	if s.tele != nil {
		s.tele.Tick(s.cycle)
	}
}

// guard runs the integrity checks on the watchdog stride: component
// errors, forward progress, the opt-in invariant sweep, and the
// optional cycle/wall-clock caps. It is the single choke point every
// run loop polls.
func (s *System) guard() error {
	if s.cfg.MaxCycles > 0 && s.cycle >= s.cfg.MaxCycles {
		return s.failf(ErrCycleLimit, "cycle %d reached the configured cap %d", s.cycle, s.cfg.MaxCycles)
	}
	if s.cycle%watchdogStride != 0 {
		return nil
	}
	if s.interrupted.Load() {
		s.interrupted.Store(false)
		return s.failf(ErrInterrupted, "interrupt requested at cycle %d", s.cycle)
	}
	if s.injector != nil && s.injector.ShouldKill(s.cycle) {
		return s.failf(faultinject.ErrKilled, "injected kill fired at cycle %d", s.cycle)
	}
	if err := s.componentErr(); err != nil {
		return err
	}
	if !s.cfg.DisableWatchdog {
		if err := s.checkProgress(); err != nil {
			return err
		}
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
	if s.cfg.WallClockTimeout > 0 && s.cycle%8192 == 0 {
		if s.wallStart.IsZero() {
			s.wallStart = time.Now()
		} else if elapsed := time.Since(s.wallStart); elapsed > s.cfg.WallClockTimeout {
			return s.failf(ErrTimeout, "wall clock %s exceeded the configured timeout %s",
				elapsed.Round(time.Millisecond), s.cfg.WallClockTimeout)
		}
	}
	return nil
}

// RunInstructions advances until every core has retired at least n
// more instructions (or exhausted its trace), with a generous cycle
// cap to guarantee termination even with the watchdog disabled. It
// returns the cycles executed and the first integrity failure: a
// *FailureError wrapping ErrNoProgress / ErrCycleLimit / ErrTimeout /
// ErrInvariant, or a propagated component error (e.g. a corrupt
// trace terminating a core's stream).
func (s *System) RunInstructions(n uint64) (uint64, error) {
	start := s.cycle
	if s.cfg.WallClockTimeout > 0 && s.wallStart.IsZero() {
		s.wallStart = time.Now()
	}
	if s.targets == nil {
		s.targets = make([]uint64, len(s.cores))
	}
	targets := s.targets
	for i, c := range s.cores {
		targets[i] = c.Retired() + n
	}
	// Worst case: every instruction is an isolated DRAM row miss.
	maxCycles := s.cycle + n*400 + 1_000_000
	if err := s.runTargets(targets, maxCycles); err != nil {
		return s.cycle - start, err
	}
	// A core whose trace died is "exhausted" and would otherwise
	// satisfy the retirement targets silently.
	return s.cycle - start, s.componentErr()
}

// runTargets advances until every core reaches its absolute
// retirement target or exhausts its trace, bounded by maxCycles. Both
// run loops (RunInstructions and the checkpoint schedule's
// runUntilRetired) funnel through here.
func (s *System) runTargets(targets []uint64, maxCycles uint64) error {
	for s.cycle < maxCycles {
		done := true
		for i, c := range s.cores {
			if c.Retired() < targets[i] && !c.Exhausted() {
				done = false
				break
			}
		}
		if done {
			break
		}
		s.advance(maxCycles)
		if err := s.guard(); err != nil {
			return err
		}
	}
	return nil
}

// Drain runs until all queues empty (after traces end), bounded. It
// returns the first integrity failure, with the same semantics as
// RunInstructions.
func (s *System) Drain() error {
	limit := s.cycle + 1_000_000
	for s.cycle < limit {
		idle := s.llc.Drained() && s.mem.Drained()
		for _, c := range s.l1s {
			idle = idle && c.Drained()
		}
		for _, c := range s.l2s {
			idle = idle && c.Drained()
		}
		if s.faultMem != nil {
			idle = idle && s.faultMem.Held() == 0
		}
		if idle {
			return s.componentErr()
		}
		s.advance(limit)
		if err := s.guard(); err != nil {
			return err
		}
	}
	return s.componentErr()
}

// ResetStats zeroes every component's counters; call at the end of
// warmup so reported numbers cover only the measured region.
func (s *System) ResetStats() {
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

// closeTelemetry flushes the final partial interval and closes the
// sink; a sink failure surfaces as the run's error only when the run
// itself succeeded (on failed runs it is best-effort flushing for
// post-mortems).
func (s *System) closeTelemetry() error {
	if s.tele == nil {
		return nil
	}
	if err := s.tele.Close(s.cycle); err != nil {
		return fmt.Errorf("sim: telemetry: %w", err)
	}
	return nil
}
