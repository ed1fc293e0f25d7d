package main

// The simulation workloads: one 4-core system on a SPEC-like synthetic
// workload with the CARE LLC and prefetching on, warmed before
// measuring. The timed phase advances the system in fixed slices of
// instructions until the time is up; its simulated counters are taken
// at a fixed instruction count, so they do not depend on host speed.

import (
	"fmt"
	"reflect"
	"time"

	"care/internal/cache"
	careplc "care/internal/core/care"
	"care/internal/mem"
	"care/internal/policy"
	"care/internal/sim"
	"care/internal/synth"
	"care/internal/trace"
)

// simSpec sizes one simulation workload. Instruction counts are per
// core.
type simSpec struct {
	profile string
	cores   int
	scale   int
	// warmup runs before the timed phase, to fill the modelled caches.
	warmup uint64
	// slice is the unit of the timed loop and of the latency metrics.
	slice uint64
	// prefix is where the simulated counters are read: the first
	// prefix instructions of the timed phase (a multiple of slice). The
	// timed phase always runs at least this far.
	prefix uint64
}

var (
	simMCF   = simSpec{profile: "429.mcf", cores: 4, scale: 16, warmup: 60_000, slice: 4_000, prefix: 200_000}
	simBzip2 = simSpec{profile: "401.bzip2", cores: 4, scale: 16, warmup: 1_000_000, slice: 80_000, prefix: 4_000_000}
)

// tinySim shrinks a spec for the self-test.
func tinySim(s simSpec) simSpec {
	s.scale = 64
	s.warmup /= 10
	s.slice /= 4
	s.prefix = 4 * s.slice
	return s
}

// simCounters are the simulated counters of the measured prefix. They
// are deterministic for a seed, so a traced run must reproduce them
// exactly.
type simCounters struct {
	Cycles       uint64
	Retired      uint64
	ROBStall     uint64
	IPC          float64
	LLCAccesses  uint64
	LLCHits      uint64
	LLCMisses    uint64
	MSHRMerges   uint64
	MSHRStalls   uint64
	DTRMAdjusts  uint64
	InsertLowRU  uint64
	DRAMReads    uint64
	DRAMRowHits  uint64
	DRAMRowMiss  uint64
	DRAMReadLat  uint64
	CoreRetired  []uint64
	TraceRecords uint64
}

// careCounts reads the CARE policy's counters, which ResetStats does not
// clear; the measured region's counts are the difference from a
// reading taken at its start.
func careCounts(sys *sim.System) careplc.Stats {
	if cs := sys.CAREStats(); cs != nil {
		return *cs
	}
	return careplc.Stats{}
}

// snapshotCounters reads the counters of the measured region so far;
// careBase is the CARE reading at its start.
func snapshotCounters(sys *sim.System, cores int, careBase *careplc.Stats) simCounters {
	res := sys.Snapshot()
	llc := sys.LLC().Stats()
	dr := sys.DRAM().Stats()
	c := simCounters{
		Cycles:      res.Cycles,
		IPC:         res.IPCSum(),
		LLCAccesses: llc.Accesses(),
		LLCHits:     llc.Hits(),
		LLCMisses:   llc.Misses(),
		MSHRMerges:  llc.MSHRMerges,
		MSHRStalls:  llc.MSHRStallCycles,
		DRAMReads:   dr.Reads,
		DRAMRowHits: dr.RowHits,
		DRAMRowMiss: dr.RowMisses,
		DRAMReadLat: dr.TotalReadLatency,
		CoreRetired: append([]uint64(nil), res.CoreInstructions...),
	}
	for i := 0; i < cores; i++ {
		st := sys.Core(i).Stats()
		c.Retired += st.Retired
		c.ROBStall += st.ROBStallCycles
	}
	cs := careCounts(sys)
	c.DTRMAdjusts = (cs.DTRMRaises + cs.DTRMLowers) - (careBase.DTRMRaises + careBase.DTRMLowers)
	c.InsertLowRU = cs.InsertLowReuse - careBase.InsertLowReuse
	return c
}

// equal reports whether two counter sets match exactly.
func (c simCounters) equal(o simCounters) bool {
	// Record counts exist only in traced runs.
	c.TraceRecords, o.TraceRecords = 0, 0
	return reflect.DeepEqual(c, o)
}

// simTracer holds a traced run's spans and boundary counts. It is nil
// in untraced runs.
type simTracer struct {
	build, warmup, measure time.Duration
	readers                []*countingReader
	progress               *retireTracker
	dram                   *timedLevel
}

// countingReader counts the trace records a core consumes. It forwards
// trace.Bounded so the simulator sees the same stream properties.
type countingReader struct {
	src     trace.Reader
	bounded trace.Bounded
	n       uint64
}

func (r *countingReader) Next() (trace.Record, error) {
	r.n++
	return r.src.Next()
}

func (r *countingReader) RemainingRecords() (uint64, bool) {
	if r.bounded == nil {
		return 0, false
	}
	return r.bounded.RemainingRecords()
}

// retireTracker is a read-only LLC tracker that counts the cycles in
// which some core retired an instruction. The LLC ticks after every
// core in a cycle, so the retired total it sees is that cycle's.
type retireTracker struct {
	sys          *sim.System
	cores        int
	last         uint64
	retireCycles uint64
}

func (t *retireTracker) total() uint64 {
	var n uint64
	for i := 0; i < t.cores; i++ {
		n += t.sys.Core(i).Retired()
	}
	return n
}

func (t *retireTracker) OnAccessStart(int, mem.Kind, uint64)     {}
func (t *retireTracker) OnMissComplete(*cache.MSHREntry, uint64) {}
func (t *retireTracker) Tick(uint64, *cache.MSHR) {
	if n := t.total(); n != t.last {
		t.retireCycles++
		t.last = n
	}
}

// reset starts counting afresh (at the start of the measured region,
// where the core counters have just been zeroed).
func (t *retireTracker) reset() {
	t.last = t.total()
	t.retireCycles = 0
}

// timedLevel interposes between the LLC and DRAM and times every 16th
// DRAM.Access call.
type timedLevel struct {
	lower   cache.Level
	calls   uint64
	sampled uint64
	total   time.Duration
}

func (l *timedLevel) Access(req *mem.Request, cycle uint64) {
	l.calls++
	if l.calls%16 != 0 {
		l.lower.Access(req, cycle)
		return
	}
	t0 := time.Now()
	l.lower.Access(req, cycle)
	l.total += time.Since(t0)
	l.sampled++
}

// traceSeed is the trace seed of one core for a run seed.
func traceSeed(seed uint64, core int) uint64 { return seed*64 + uint64(core) + 1 }

// warmupLaps is how many pieces warm-up runs in, each timed as one lap
// of the host reference.
const warmupLaps = 10

// buildSim constructs and warms one system and returns its set-up time,
// timed in laps of ref (which must be started). With tr non-nil it
// records the set-up spans and installs the interposers.
func buildSim(s simSpec, seed uint64, tr *simTracer, ref *hostRef) (*sim.System, time.Duration, error) {
	prof, err := synth.Lookup(s.profile)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	traces := make([]trace.Reader, s.cores)
	for i := range traces {
		g := synth.NewScaledGenerator(prof, traceSeed(seed, i), s.scale)
		if tr != nil {
			cr := &countingReader{src: g}
			cr.bounded, _ = trace.Reader(g).(trace.Bounded)
			tr.readers = append(tr.readers, cr)
			traces[i] = cr
		} else {
			traces[i] = g
		}
	}
	cfg := sim.ScaledConfig(s.cores, s.scale)
	cfg.LLCPolicy = policy.CARE
	cfg.Prefetch = true
	sys, err := sim.New(cfg, traces)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		tr.progress = &retireTracker{sys: sys, cores: s.cores}
		sys.LLC().AddTracker(tr.progress)
		tr.dram = &timedLevel{lower: sys.DRAM()}
		sys.LLC().SetLower(tr.dram)
	}
	build := time.Since(t0)
	setup := ref.lap(build)
	var warm time.Duration
	for i := 0; i < warmupLaps; i++ {
		t1 := time.Now()
		if _, err := sys.RunInstructions(s.warmup / warmupLaps); err != nil {
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		took := time.Since(t1)
		warm += took
		setup += ref.lap(took)
	}
	if fills, blocks := sys.LLC().Stats().Fills, uint64(cfg.LLC.Sets*cfg.LLC.Ways); fills < blocks {
		return nil, 0, fmt.Errorf("warm-up filled %d LLC blocks of %d; lengthen it", fills, blocks)
	}
	sys.ResetStats()
	if tr != nil {
		tr.build, tr.warmup = build, warm
		tr.progress.reset()
		for _, r := range tr.readers {
			r.n = 0
		}
	}
	return sys, setup, nil
}

// simPhase is the outcome of one timed phase. Slice times, rates and
// set-up times are normalized to the nominal host (ref.go).
type simPhase struct {
	counters   simCounters
	simTime    time.Duration // host time spent in RunInstructions
	slices     []float64     // ms per slice
	rates      []float64     // instructions (all cores) per second, per slice
	cycles     uint64        // cycles of the whole timed phase
	setups     []float64     // set-up seconds
	refMS      float64       // median host ms of the timed phase's reference blocks
	memMB      float64
	noRetire   float64
	dramAccess float64 // mean ns per sampled DRAM.Access
}

// rate is the phase's throughput: the median of its slice rates, which
// a burst of interference on a shared host moves less than a mean.
func (ph *simPhase) rate() float64 { return median(ph.rates) }

// retired is the instruction total of every core.
func retired(sys *sim.System, cores int) uint64 {
	var n uint64
	for i := 0; i < cores; i++ {
		n += sys.Core(i).Retired()
	}
	return n
}

// measureSim sets up (p.setups() times) and runs one timed phase. The
// simulator runs on one goroutine, and so does the reference block.
func measureSim(s simSpec, p params, rep *report, tr *simTracer) (*simPhase, error) {
	ph := &simPhase{}
	ref := newHostRef(1)
	var sys *sim.System
	for i := 0; i < p.setups(); i++ {
		ref.start()
		var took time.Duration
		var err error
		if sys, took, err = buildSim(s, p.seed, tr, ref); err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, took.Seconds())
	}
	careBase := careCounts(sys)
	startCycle := sys.Cycle()
	deadline := time.Duration(p.seconds * float64(time.Second))
	var done uint64
	var prefix *simCounters
	ref.start()
	start := time.Now()
	for {
		n0, t0 := retired(sys, s.cores), time.Now()
		_, err := sys.RunInstructions(s.slice)
		took := time.Since(t0)
		ph.simTime += took
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.failf("slice %d: %v", rep.attempted, err)
			break
		}
		took = ref.lap(took)
		ph.slices = append(ph.slices, ms(took))
		ph.rates = append(ph.rates, float64(retired(sys, s.cores)-n0)/took.Seconds())
		done += s.slice
		if done == s.prefix {
			c := snapshotCounters(sys, s.cores, &careBase)
			if tr != nil {
				for _, r := range tr.readers {
					c.TraceRecords += r.n
				}
				ph.noRetire = 1 - float64(tr.progress.retireCycles)/float64(sys.Cycle()-startCycle)
			}
			prefix = &c
			// Memory is read here, at a fixed instruction count, because
			// the simulator's footprint grows with the instructions run.
			ph.memMB = liveHeapMB()
		}
		if done >= s.prefix && time.Since(start) >= deadline {
			break
		}
	}
	ph.refMS = median(ref.ms)
	ph.cycles = sys.Cycle() - startCycle
	end := snapshotCounters(sys, s.cores, &careBase)
	if tr != nil {
		tr.measure = ph.simTime
		if tr.dram.sampled > 0 {
			ph.dramAccess = float64(tr.dram.total.Nanoseconds()) / float64(tr.dram.sampled)
		}
	}
	if prefix == nil {
		return ph, fmt.Errorf("timed phase stopped before the %d-instruction prefix", s.prefix)
	}
	ph.counters = *prefix
	checkSim(ph.counters, s.prefix, rep)
	checkSim(end, done, rep)
	return ph, nil
}

// checkSim is the simulation correctness check: every core retired its
// budget, and LLC hits + misses = accesses.
func checkSim(c simCounters, budget uint64, rep *report) {
	for i, n := range c.CoreRetired {
		if n < budget {
			rep.failf("core %d retired %d of its %d-instruction budget", i, n, budget)
		}
	}
	if c.LLCHits+c.LLCMisses != c.LLCAccesses {
		rep.failf("LLC hits %d + misses %d != accesses %d", c.LLCHits, c.LLCMisses, c.LLCAccesses)
	}
}

func runSim(s simSpec, p params) (*report, error) {
	if p.tiny {
		s = tinySim(s)
	}
	rep := newReport()
	if !p.traced {
		ph, err := measureSim(s, p, rep, nil)
		if err != nil {
			return nil, err
		}
		rep.metrics["setup_s"] = median(ph.setups)
		rep.metrics["ops_per_s"] = ph.rate()
		rep.metrics["latency_ms_p50"] = quantile(ph.slices, 0.50)
		rep.metrics["latency_ms_p95"] = quantile(ph.slices, 0.95)
		rep.metrics["hit_ratio"] = float64(ph.counters.LLCHits) / float64(ph.counters.LLCAccesses)
		rep.metrics["mem_mb"] = ph.memMB
		return rep, nil
	}

	// Traced: an untraced phase, then a traced phase of the same seed,
	// each half the time; their simulated counters must be identical.
	half := p
	half.seconds = p.seconds / 2
	plain, err := measureSim(s, half, rep, nil)
	if err != nil {
		return nil, err
	}
	tr := &simTracer{}
	ph, err := measureSim(s, half, rep, tr)
	if err != nil {
		return nil, err
	}
	if !ph.counters.equal(plain.counters) {
		rep.failf("traced counters %+v differ from untraced %+v", ph.counters, plain.counters)
	}

	// synth.ns_per_record: drain same-seed generators of the same
	// length on their own.
	prof, err := synth.Lookup(s.profile)
	if err != nil {
		return nil, err
	}
	per := ph.counters.TraceRecords / uint64(s.cores)
	t0 := time.Now()
	for i := 0; i < s.cores; i++ {
		g := synth.NewScaledGenerator(prof, traceSeed(p.seed, i), s.scale)
		for n := uint64(0); n < per; n++ {
			if _, err := g.Next(); err != nil {
				return nil, err
			}
		}
	}
	drain := time.Since(t0)

	c := ph.counters
	m := rep.metrics
	m["sim.cycles"] = float64(c.Cycles)
	m["sim.no_retire_frac"] = ph.noRetire
	m["sim.host_ns_per_cycle"] = float64(ph.simTime.Nanoseconds()) / float64(ph.cycles)
	m["sim.build_s"] = tr.build.Seconds()
	m["sim.warmup_s"] = tr.warmup.Seconds()
	m["sim.measure_s"] = tr.measure.Seconds()
	m["synth.records"] = float64(c.TraceRecords)
	m["synth.ns_per_record"] = float64(drain.Nanoseconds()) / float64(per*uint64(s.cores))
	m["cpu.retired"] = float64(c.Retired)
	m["cpu.ipc"] = c.IPC
	m["cpu.rob_stall_frac"] = float64(c.ROBStall) / float64(c.Cycles*uint64(s.cores))
	m["llc.accesses"] = float64(c.LLCAccesses)
	m["llc.miss_ratio"] = float64(c.LLCMisses) / float64(c.LLCAccesses)
	m["llc.mshr_merges"] = float64(c.MSHRMerges)
	m["llc.mshr_stall_cycles"] = float64(c.MSHRStalls)
	m["care.dtrm_adjusts"] = float64(c.DTRMAdjusts)
	m["care.insert_low_reuse"] = float64(c.InsertLowRU)
	m["dram.reads"] = float64(c.DRAMReads)
	m["dram.row_hit_ratio"] = float64(c.DRAMRowHits) / float64(c.DRAMRowHits+c.DRAMRowMiss)
	m["dram.read_latency_cycles"] = float64(c.DRAMReadLat) / float64(c.DRAMReads)
	m["dram.access_ns"] = ph.dramAccess
	m["tracing.overhead_frac"] = overheadFrac(plain.rate(), ph.rate())
	m["host.ref_ms"] = ph.refMS
	return rep, nil
}
