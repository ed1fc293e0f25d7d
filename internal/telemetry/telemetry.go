// Package telemetry provides interval-resolved metric collection for
// the simulator: a Collector snapshots counter *deltas* every N cycles
// into a preallocated store that keeps the run's whole series, and
// Write renders finished series as CSV, JSONL or Prometheus text once
// the run ends.
//
// The paper's mechanisms are temporal — DTRM retunes its thresholds at
// epoch boundaries and pure-miss behaviour shifts with program phase —
// so end-of-run aggregates hide exactly the effects the evaluation is
// about. The collector makes every run a time series: per-core IPC and
// MPKI, LLC hit/miss/pure-miss rates and mean PMC, DTRM thresholds and
// epoch decisions, EPV insertion mix, MSHR occupancy histograms, and
// DRAM queue depth and row-hit rate, all per interval.
//
// Overhead design: the simulator's hot path pays one nil check per
// cycle when telemetry is off and two integer comparisons per cycle
// when it is on. All counter reads and subtractions happen only at
// interval boundaries (default every 100k cycles), and interval
// records live in preallocated slots so steady-state collection does
// not allocate; the collector does no I/O. bench_test.go at the module
// root quantifies the end-to-end overhead (budget: <2%).
package telemetry

import (
	"errors"

	"care/internal/cache"
	careplc "care/internal/core/care"
	"care/internal/cpu"
	"care/internal/dram"
)

// DefaultInterval is the collection interval in cycles.
const DefaultInterval = 100_000

// initialSlots is the number of interval slots a collector
// preallocates; the store doubles whenever it fills. Most runs fill a
// few dozen intervals, so the store starts small.
const initialSlots = 16

// occBuckets is the number of MSHR-occupancy histogram buckets; bucket
// i covers occupancy fractions [i/8, (i+1)/8).
const occBuckets = 8

// occSamples is how many times per interval the collector samples
// MSHR occupancy into the interval's histogram.
const occSamples = 16

// Options configures a Collector.
type Options struct {
	// Interval is the snapshot period in cycles (0 = DefaultInterval).
	Interval uint64
	// Tag identifies the run in written series (workload/policy/cores);
	// the harness uses it to merge per-experiment series.
	Tag string
}

// CoreSample is one core's activity during one interval (all counters
// are deltas over the interval).
type CoreSample struct {
	// Instructions retired during the interval.
	Instructions uint64 `json:"instr"`
	// Cycles the core executed (normally the interval length).
	Cycles uint64 `json:"cycles"`
	// IPC over the interval.
	IPC float64 `json:"ipc"`
	// MemRefs is retired loads+stores.
	MemRefs uint64 `json:"mem_refs"`
	// ROBStallCycles spent with dispatch blocked by a full ROB.
	ROBStallCycles uint64 `json:"rob_stall,omitempty"`
	// LLCMisses is this core's demand misses at the LLC.
	LLCMisses uint64 `json:"llc_misses"`
	// MPKI is LLC demand misses per kilo-instruction.
	MPKI float64 `json:"mpki"`
}

// LLCSample is the shared cache's interval activity (deltas).
type LLCSample struct {
	Accesses   uint64 `json:"acc"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	PureMisses uint64 `json:"pure"`
	// MissRate and PureMissRate are over this interval's accesses.
	MissRate     float64 `json:"miss_rate"`
	PureMissRate float64 `json:"pmr"`
	// MeanPMC is the average PMC of misses completed in the interval.
	MeanPMC float64 `json:"mean_pmc"`
	// MSHRStallCycles counts input-queue blocking on a full MSHR file.
	MSHRStallCycles uint64 `json:"mshr_stall,omitempty"`
	// QueueDepth is the input-queue length at the interval boundary.
	QueueDepth int `json:"queue,omitempty"`
}

// MSHRSample describes LLC MSHR occupancy over one interval.
type MSHRSample struct {
	// Occupancy is the entry count at the interval boundary.
	Occupancy int `json:"occ"`
	// Capacity is the file size.
	Capacity int `json:"cap"`
	// OccHist buckets the sub-sampled occupancy fraction into eighths
	// of capacity ([i/8, (i+1)/8)).
	OccHist [occBuckets]uint32 `json:"hist"`
}

// DRAMSample is the memory system's interval activity (deltas, plus
// the instantaneous queue depth at the boundary).
type DRAMSample struct {
	Reads      uint64  `json:"reads"`
	Writes     uint64  `json:"writes"`
	RowHits    uint64  `json:"row_hits"`
	RowMisses  uint64  `json:"row_misses"`
	RowHitRate float64 `json:"row_hit_rate"`
	// QueueDepth is in-flight reads plus buffered writes at the
	// interval boundary.
	QueueDepth int `json:"queue"`
}

// CARESample is the CARE/M-CARE policy's interval activity: the live
// DTRM thresholds, the epoch count, and per-interval decision deltas.
type CARESample struct {
	// PMCLow and PMCHigh are the quantization thresholds at the
	// interval boundary.
	PMCLow  float64 `json:"pmc_low"`
	PMCHigh float64 `json:"pmc_high"`
	// Epoch is the cumulative count of completed DTRM periods.
	Epoch uint64 `json:"epoch"`
	// Raises, Lowers, and CostlyMisses are deltas over the interval.
	Raises       uint64 `json:"raises"`
	Lowers       uint64 `json:"lowers"`
	CostlyMisses uint64 `json:"costly"`
	// InsertEPV counts insertions by assigned eviction priority value.
	InsertEPV [4]uint64 `json:"insert_epv"`
}

// Interval is one completed collection interval.
type Interval struct {
	// Tag is the collector's run tag.
	Tag string `json:"tag"`
	// Index numbers intervals from 0 within the measured region
	// (warmup intervals restart at 0 when the region begins).
	Index int `json:"i"`
	// Start and End are the interval's cycle bounds [Start, End).
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Warmup marks intervals collected before stats were rebased at
	// the end of warmup; reports skip them by default.
	Warmup bool `json:"warmup,omitempty"`

	Cores []CoreSample `json:"cores"`
	LLC   LLCSample    `json:"llc"`
	MSHR  MSHRSample   `json:"mshr"`
	DRAM  DRAMSample   `json:"dram"`
	// CARE is nil unless the LLC runs CARE/M-CARE.
	CARE *CARESample `json:"care,omitempty"`
}

// Cycles returns the interval length.
func (iv *Interval) Cycles() uint64 { return iv.End - iv.Start }

// Instructions returns the instructions retired across all cores.
func (iv *Interval) Instructions() uint64 {
	var n uint64
	for i := range iv.Cores {
		n += iv.Cores[i].Instructions
	}
	return n
}

// IPC returns the aggregate instructions per cycle over the interval.
func (iv *Interval) IPC() float64 {
	if c := iv.Cycles(); c > 0 {
		return float64(iv.Instructions()) / float64(c)
	}
	return 0
}

// MPKI returns the aggregate LLC demand MPKI over the interval.
func (iv *Interval) MPKI() float64 {
	var misses, instr uint64
	for i := range iv.Cores {
		misses += iv.Cores[i].LLCMisses
		instr += iv.Cores[i].Instructions
	}
	if instr == 0 {
		return 0
	}
	return float64(misses) / float64(instr) * 1000
}

// Meta describes one collector's run, written once per series.
type Meta struct {
	Tag          string `json:"tag"`
	Cores        int    `json:"cores"`
	Interval     uint64 `json:"interval"`
	Policy       string `json:"policy"`
	MSHRCapacity int    `json:"mshr_capacity"`
}

// baseline holds the components' own counters as they stood at the
// last interval boundary; snapshots subtract it to produce deltas.
// Every counter the collector reads is zero when Bind runs (the system
// is fresh) and again right after ResetStats, so Bind and Rebase start
// the baseline from zero values instead of reading the counters.
type baseline struct {
	cores []cpu.Stats
	// llc's per-core slices are the collector's own, copied into at
	// each boundary.
	llc  cache.Stats
	dram dram.Stats
	care careplc.Stats
}

// zeroBaseline is the baseline of n cores' zero counters.
func zeroBaseline(n int) baseline {
	return baseline{
		cores: make([]cpu.Stats, n),
		llc:   cache.Stats{PerCoreDemandAccesses: make([]uint64, n), PerCoreDemandMisses: make([]uint64, n)},
	}
}

// Collector snapshots counter deltas at a fixed cycle interval. It is
// not safe for concurrent use; each simulation owns its collector and
// drives it from the simulation goroutine (parallel experiments use
// one collector per simulation and merge afterwards via Registry).
type Collector struct {
	opts     Options
	interval uint64

	// Hot-path state: Tick compares the cycle against these two
	// watermarks and returns; everything else runs per interval.
	next    uint64
	nextOcc uint64

	occStride uint64
	start     uint64
	index     int
	warm      bool
	bound     bool
	closed    bool

	cores []*cpu.Core
	llc   *cache.Cache
	mem   *dram.DRAM
	care  *careplc.Policy
	meta  Meta

	base    baseline
	occHist [occBuckets]uint32

	// slots[:count] are the completed intervals, warmup included;
	// the rest are preallocated for the intervals to come.
	slots []Interval
	count int
}

// NewCollector creates a collector; Bind attaches it to a system
// (sim.Config.Telemetry does this automatically).
func NewCollector(opts Options) *Collector {
	if opts.Interval == 0 {
		opts.Interval = DefaultInterval
	}
	stride := opts.Interval / occSamples
	if stride == 0 {
		stride = 1
	}
	return &Collector{opts: opts, interval: opts.Interval, occStride: stride}
}

// Interval returns the configured collection period in cycles.
func (c *Collector) Interval() uint64 { return c.interval }

// Meta returns the series metadata (valid after Bind).
func (c *Collector) Meta() Meta { return c.meta }

// Bind attaches the collector to a system's components at cycle 0.
// The simulator calls it from sim.New; a collector can be bound once.
func (c *Collector) Bind(cores []*cpu.Core, llc *cache.Cache, mem *dram.DRAM) error {
	if c.bound {
		return errors.New("telemetry: collector already bound (one collector per simulation)")
	}
	if len(cores) == 0 || llc == nil || mem == nil || llc.Cores != len(cores) {
		return errors.New("telemetry: Bind needs cores, an LLC shared by them, and a DRAM model")
	}
	c.bound = true
	c.cores = cores
	c.llc = llc
	c.mem = mem
	if p, ok := llc.Policy().(*careplc.Policy); ok {
		c.care = p
	}
	c.meta = Meta{
		Tag:          c.opts.Tag,
		Cores:        len(cores),
		Interval:     c.interval,
		Policy:       llc.Policy().Name(),
		MSHRCapacity: llc.MSHRFile().Capacity(),
	}

	c.base = zeroBaseline(len(cores))
	c.grow()
	c.start = 0
	c.next = c.interval
	c.nextOcc = c.occStride
	return nil
}

// MarkWarmup marks intervals collected from now until the next Rebase
// as warmup; sim.Execute calls it before the warmup region.
func (c *Collector) MarkWarmup() { c.warm = true }

// Tick is the per-cycle hook. It is designed to cost two integer
// comparisons in the steady state; all real work happens at interval
// boundaries.
func (c *Collector) Tick(cycle uint64) {
	if cycle >= c.nextOcc {
		c.sampleOcc()
		c.nextOcc += c.occStride
	}
	if cycle >= c.next {
		c.snapshot(cycle)
	}
}

// NextTick returns the smallest cycle argument for which Tick does
// work (an occupancy sample or an interval snapshot); Tick is a no-op
// for every smaller cycle. The simulator's fast-forward stops short of
// it.
func (c *Collector) NextTick() uint64 { return min(c.next, c.nextOcc) }

// sampleOcc buckets the LLC MSHR occupancy fraction into the current
// interval's histogram.
func (c *Collector) sampleOcc() {
	cap := c.llc.MSHRFile().Capacity()
	occ := c.llc.MSHRFile().Len()
	idx := 0
	if cap > 0 {
		idx = occ * occBuckets / cap
	}
	if idx >= occBuckets {
		idx = occBuckets - 1
	}
	c.occHist[idx]++
}

// grow doubles the store (or creates its initial slots), giving each
// new slot its own core and CARE samples so snapshots fill slots in
// place without allocating.
func (c *Collector) grow() {
	n, old := len(c.cores), len(c.slots)
	add := max(old, initialSlots)
	slots := make([]Interval, old+add)
	copy(slots, c.slots)
	cores := make([]CoreSample, add*n)
	var care []CARESample
	if c.care != nil {
		care = make([]CARESample, add)
	}
	for i := range add {
		iv := &slots[old+i]
		iv.Cores = cores[i*n : (i+1)*n : (i+1)*n]
		if care != nil {
			iv.CARE = &care[i]
		}
	}
	c.slots = slots
}

// Rebase realigns the collector with freshly reset statistics: the
// simulator calls it from ResetStats at the end of warmup. Interval
// numbering restarts at 0 (the completed warmup intervals stay in the
// series, marked Warmup), and the baseline restarts at zero, as the
// counters just did, so the first measured interval's deltas are
// exact.
func (c *Collector) Rebase(cycle uint64) {
	if !c.bound {
		return
	}
	c.warm = false
	c.index = 0
	c.start = cycle
	c.next = cycle + c.interval
	c.nextOcc = cycle + c.occStride
	c.occHist = [occBuckets]uint32{}
	c.base = zeroBaseline(len(c.cores))
}

// snapshot closes the interval [c.start, cycle): computes deltas into
// the next free slot and advances the baseline.
func (c *Collector) snapshot(cycle uint64) {
	if c.count == len(c.slots) {
		c.grow()
	}
	iv := &c.slots[c.count]
	iv.Tag = c.opts.Tag
	iv.Index = c.index
	iv.Start = c.start
	iv.End = cycle
	iv.Warmup = c.warm

	b := &c.base
	ls := c.llc.Stats()
	for i, core := range c.cores {
		st, was := core.Stats(), &b.cores[i]
		cs := &iv.Cores[i]
		cs.Instructions = st.Retired - was.Retired
		cs.Cycles = st.Cycles - was.Cycles
		cs.MemRefs = st.MemRefs() - was.MemRefs()
		cs.ROBStallCycles = st.ROBStallCycles - was.ROBStallCycles
		cs.LLCMisses = ls.PerCoreDemandMisses[i] - b.llc.PerCoreDemandMisses[i]
		cs.IPC, cs.MPKI = 0, 0
		if cs.Cycles > 0 {
			cs.IPC = float64(cs.Instructions) / float64(cs.Cycles)
		}
		if cs.Instructions > 0 {
			cs.MPKI = float64(cs.LLCMisses) / float64(cs.Instructions) * 1000
		}
		*was = *st
	}

	l, was := &iv.LLC, &b.llc
	l.Accesses = ls.Accesses() - was.Accesses()
	l.Hits = ls.Hits() - was.Hits()
	l.Misses = ls.Misses() - was.Misses()
	l.PureMisses = ls.PureMisses - was.PureMisses
	l.MSHRStallCycles = ls.MSHRStallCycles - was.MSHRStallCycles
	l.MissRate, l.PureMissRate, l.MeanPMC = 0, 0, 0
	if l.Accesses > 0 {
		l.MissRate = float64(l.Misses) / float64(l.Accesses)
		l.PureMissRate = float64(l.PureMisses) / float64(l.Accesses)
	}
	if l.Misses > 0 {
		l.MeanPMC = (ls.PMCSum - was.PMCSum) / float64(l.Misses)
	}
	l.QueueDepth = c.llc.QueueLen()
	acc, miss := was.PerCoreDemandAccesses, was.PerCoreDemandMisses
	*was = *ls
	was.PerCoreDemandAccesses = append(acc[:0], ls.PerCoreDemandAccesses...)
	was.PerCoreDemandMisses = append(miss[:0], ls.PerCoreDemandMisses...)

	iv.MSHR = MSHRSample{
		Occupancy: c.llc.MSHRFile().Len(),
		Capacity:  c.llc.MSHRFile().Capacity(),
		OccHist:   c.occHist,
	}
	c.occHist = [occBuckets]uint32{}

	ds := c.mem.Stats()
	d := &iv.DRAM
	d.Reads = ds.Reads - b.dram.Reads
	d.Writes = ds.Writes - b.dram.Writes
	d.RowHits = ds.RowHits - b.dram.RowHits
	d.RowMisses = ds.RowMisses - b.dram.RowMisses
	d.RowHitRate = 0
	if t := d.RowHits + d.RowMisses; t > 0 {
		d.RowHitRate = float64(d.RowHits) / float64(t)
	}
	d.QueueDepth = c.mem.QueueDepth()
	b.dram = *ds

	if c.care != nil {
		cs := c.care.Stats()
		low, high := c.care.Thresholds()
		*iv.CARE = CARESample{
			PMCLow:       low,
			PMCHigh:      high,
			Epoch:        c.care.Epochs(),
			Raises:       cs.DTRMRaises - b.care.DTRMRaises,
			Lowers:       cs.DTRMLowers - b.care.DTRMLowers,
			CostlyMisses: cs.CostlyMisses - b.care.CostlyMisses,
		}
		for i := range iv.CARE.InsertEPV {
			iv.CARE.InsertEPV[i] = cs.InsertEPV[i] - b.care.InsertEPV[i]
		}
		b.care = *cs
	}

	c.index++
	c.count++
	c.start = cycle
	c.next = cycle + c.interval
}

// Close flushes the final partial interval, if any cycles elapsed
// since the last boundary. sim.Execute calls it automatically; users
// driving System.RunInstructions directly call it themselves.
func (c *Collector) Close(cycle uint64) {
	if !c.bound || c.closed {
		return
	}
	c.closed = true
	if cycle > c.start {
		c.snapshot(cycle)
	}
}

// Series returns copies of every completed interval in order, warmup
// included (Measured filters it out).
func (c *Collector) Series() []Interval {
	out := make([]Interval, c.count)
	for i := range out {
		out[i] = copyInterval(&c.slots[i])
	}
	return out
}

// copyInterval deep-copies an interval, so a returned series does not
// share samples with the collector.
func copyInterval(iv *Interval) Interval {
	out := *iv
	out.Cores = append([]CoreSample(nil), iv.Cores...)
	if iv.CARE != nil {
		cs := *iv.CARE
		out.CARE = &cs
	}
	return out
}
