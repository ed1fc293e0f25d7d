// Package care implements the paper's contribution: CARE, the
// Concurrency-Aware (cache) REplacement framework of §V, and its
// ablation M-CARE, which swaps the PMC concurrency signal for the
// older MLP-based cost while keeping everything else identical.
//
// CARE couples two predictions per PC signature:
//
//   - Re-reference Confidence (RC): will blocks from this PC be
//     reused? (the SHiP++ lineage)
//   - PMC Degree (PD): when blocks from this PC miss, do those misses
//     actually hurt — i.e. do they have high Pure Miss Contribution?
//
// Both live in the Signature History Table (SHT). The
// Signature-Based Predictor (SBP) classifies each access as
// High/Moderate/Low-Reuse and High/Low-Cost, and the policy maps the
// classification to a 2-bit Eviction Priority Value (EPV) per block
// (Table IV). The Dynamic Threshold Reconfiguration Mechanism (DTRM,
// §V-F) adapts the PMC quantization thresholds to the running
// application.
package care

import (
	"fmt"

	"care/internal/cache"
	"care/internal/mem"
	"care/internal/replacement"
)

// SHT geometry (paper §V-B, Table V).
const (
	// shtEntries is the Signature History Table size.
	shtEntries = 1 << replacement.SignatureBits
	// rcMax / pdMax are the 3-bit saturating counter ceilings.
	rcMax = 7
	pdMax = 7
	// epvMax is the 2-bit eviction priority ceiling; EPV==epvMax
	// marks the eviction candidates.
	epvMax = 3
)

// Default DTRM parameters (§V-F).
const (
	// DefaultPMCLow and DefaultPMCHigh are the initial quantization
	// thresholds in cycles.
	DefaultPMCLow  = 50.0
	DefaultPMCHigh = 350.0
	// dtrmLowStep and dtrmHighStep are the per-period adjustments.
	dtrmLowStep  = 10.0
	dtrmHighStep = 70.0
	// dtrmLowFrac / dtrmHighFrac bound the costly-miss share that
	// triggers threshold moves (0.5% and 5%).
	dtrmLowFrac  = 0.005
	dtrmHighFrac = 0.05
)

// Config tunes a CARE instance. The zero value gives the paper's
// configuration.
type Config struct {
	// SampledSets is how many sets train the SHT (64 in the paper).
	// <= 0 means 64, capped at the set count.
	SampledSets int
	// DTRMPeriod is the number of misses per DTRM window. <= 0 means
	// half the number of blocks in the cache (the paper's 16K misses
	// for a single-core 2MB LLC).
	DTRMPeriod uint64
	// DisableDTRM freezes the thresholds at their initial values
	// (used by the DTRM ablation experiment).
	DisableDTRM bool
	// PMCLow / PMCHigh override the initial thresholds when > 0.
	PMCLow, PMCHigh float64
	// Seed feeds the random victim tie-break.
	Seed uint64
}

// shtEntry is one Signature History Table row.
type shtEntry struct {
	rc uint8 // re-reference confidence
	pd uint8 // PMC degree
}

// blockMeta is the per-block metadata CARE maintains: the 2-bit EPV
// everywhere, plus the training bits (signature, R, PMCS, prefetch)
// the hardware would keep only in sampled sets.
type blockMeta struct {
	epv        uint8
	sig        uint16
	reused     bool // the R bit
	pmcs       uint8
	prefetched bool // still in prefetched state
	writeback  bool // filled by a writeback (never trains)
	valid      bool
}

// Policy is the CARE cache management framework. It implements
// cache.Policy and is attached to the LLC together with a PMC (or
// MLP) tracker that supplies fill costs.
//
// Field order keeps hits and misses on separate cache lines. The
// fields OnHit reads come first and fill the first 64 bytes; the
// read-only configuration follows; the fields Victim, OnFill and
// OnEvict write come last. A miss on one core then does not
// invalidate the line another core's hits read (TestPolicyLayout).
type Policy struct {
	// Read by OnHit (and by every other callback).
	sht []shtEntry
	// blocks holds every block's metadata, set by set: way w of set
	// s is blocks[s*ways+w].
	blocks  []blockMeta
	ways    int
	sampled replacement.SampledSets

	// Read-only after construction.
	cfg  Config
	name string
	// costOf selects the concurrency signal: PMC for CARE, MLP-based
	// cost for M-CARE.
	costOf func(info cache.AccessInfo) float64

	// Written on misses.
	rng rng
	// DTRM state.
	pmcLow, pmcHigh float64
	tcm             uint64 // costly misses this period
	missesInPeriod  uint64
	period          uint64
	epochs          uint64 // completed DTRM periods

	stats Stats
}

// Stats exposes CARE-internal counters for experiments and tests.
type Stats struct {
	// Insertions by predicted class.
	InsertHighReuse, InsertLowReuse, InsertModerate uint64
	InsertHighCost, InsertLowCost                   uint64
	InsertWriteback                                 uint64
	// InsertEPV counts insertions by the EPV they were assigned —
	// the live picture of how the SBP classification maps onto
	// eviction priorities (telemetry records per-interval deltas).
	InsertEPV [epvMax + 1]uint64
	// DTRM activity.
	DTRMRaises, DTRMLowers uint64
	CostlyMisses           uint64
}

// rng is a deterministic xorshift for victim tie-breaking.
type rng uint64

func (r *rng) next() uint64 {
	v := uint64(*r)
	if v == 0 {
		v = 0x9e3779b97f4a7c15
	}
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*r = rng(v)
	return v
}

// New returns a CARE policy with the given configuration.
func New(cfg Config) *Policy {
	p := &Policy{
		cfg:    cfg,
		name:   "care",
		costOf: func(info cache.AccessInfo) float64 { return info.PMC },
	}
	p.applyConfig()
	return p
}

// NewMCARE returns the M-CARE ablation: the identical framework
// driven by MLP-based cost, which sees miss-miss but not hit-miss
// overlapping.
func NewMCARE(cfg Config) *Policy {
	p := &Policy{
		cfg:    cfg,
		name:   "m-care",
		costOf: func(info cache.AccessInfo) float64 { return info.MLPCost },
	}
	p.applyConfig()
	return p
}

func (p *Policy) applyConfig() {
	p.pmcLow = DefaultPMCLow
	p.pmcHigh = DefaultPMCHigh
	if p.cfg.PMCLow > 0 {
		p.pmcLow = p.cfg.PMCLow
	}
	if p.cfg.PMCHigh > 0 {
		p.pmcHigh = p.cfg.PMCHigh
	}
	p.rng = rng(p.cfg.Seed)
}

// Name implements cache.Policy.
func (p *Policy) Name() string { return p.name }

// Init implements cache.Policy.
func (p *Policy) Init(sets, ways int) {
	p.sht = make([]shtEntry, shtEntries)
	for i := range p.sht {
		// Start counters mid-range so cold signatures are Moderate.
		p.sht[i] = shtEntry{rc: 1, pd: 3}
	}
	p.ways = ways
	p.blocks = make([]blockMeta, sets*ways)
	sampledWant := p.cfg.SampledSets
	if sampledWant <= 0 {
		sampledWant = 64
	}
	p.sampled = replacement.NewSampledSets(sets, sampledWant)
	p.period = p.cfg.DTRMPeriod
	if p.period == 0 {
		p.period = uint64(sets*ways) / 2
		if p.period == 0 {
			p.period = 1
		}
	}
}

// Stats returns the live CARE counters.
func (p *Policy) Stats() *Stats { return &p.stats }

// Thresholds returns the current DTRM thresholds (PMC_low, PMC_high).
func (p *Policy) Thresholds() (low, high float64) { return p.pmcLow, p.pmcHigh }

// Epochs returns the number of completed DTRM periods (threshold
// reconfiguration opportunities) since the policy was initialised.
// Epochs advance even when DTRM is disabled or decides not to move
// the thresholds, so telemetry can attribute intervals to epochs.
func (p *Policy) Epochs() uint64 { return p.epochs }

// reuse classes from the RC counter (§V-C).
type reuseClass uint8

const (
	lowReuse reuseClass = iota
	moderateReuse
	highReuse
)

// costClass from the PD counter (§V-C).
type costClass uint8

const (
	moderateCost costClass = iota
	lowCost
	highCost
)

func (p *Policy) classify(sig uint16) (reuseClass, costClass) {
	e := p.sht[sig]
	r := moderateReuse
	switch {
	case e.rc == 0:
		r = lowReuse
	case e.rc >= rcMax:
		r = highReuse
	}
	c := moderateCost
	switch {
	case e.pd == 0:
		c = lowCost
	case e.pd >= pdMax:
		c = highCost
	}
	return r, c
}

// quantizePMCS maps a measured cost to the 2-bit PMCS via the DTRM
// thresholds (§V-B): below low → 0, above high → 3, between → 1.
func (p *Policy) quantizePMCS(cost float64) uint8 {
	switch {
	case cost < p.pmcLow:
		return 0
	case cost > p.pmcHigh:
		return 3
	default:
		return 1
	}
}

// dtrmOnMiss counts the miss and, at period boundaries, retunes the
// thresholds (§V-F).
func (p *Policy) dtrmOnMiss(cost float64) {
	if cost > p.pmcHigh {
		p.tcm++
		p.stats.CostlyMisses++
	}
	p.missesInPeriod++
	if p.missesInPeriod < p.period {
		return
	}
	if !p.cfg.DisableDTRM {
		costly := float64(p.tcm)
		window := float64(p.period)
		switch {
		case costly < dtrmLowFrac*window:
			// Too few costly misses: thresholds are too high to
			// discriminate — lower them.
			p.pmcLow -= dtrmLowStep
			p.pmcHigh -= dtrmHighStep
			p.stats.DTRMLowers++
		case costly > dtrmHighFrac*window:
			p.pmcLow += dtrmLowStep
			p.pmcHigh += dtrmHighStep
			p.stats.DTRMRaises++
		}
		if p.pmcLow < 0 {
			p.pmcLow = 0
		}
		if p.pmcHigh < p.pmcLow+dtrmHighStep {
			p.pmcHigh = p.pmcLow + dtrmHighStep
		}
	}
	p.epochs++
	p.tcm = 0
	p.missesInPeriod = 0
}

// Victim implements cache.Policy: pick randomly among EPV==3 blocks;
// if none exists, age the whole set and retry (§V-D).
func (p *Policy) Victim(set int, info cache.AccessInfo) int {
	base := set * p.ways
	metas := p.blocks[base : base+p.ways]
	for {
		count := 0
		for w := range metas {
			if metas[w].epv >= epvMax {
				count++
			}
		}
		if count > 0 {
			pick := int(p.rng.next() % uint64(count))
			for w := range metas {
				if metas[w].epv >= epvMax {
					if pick == 0 {
						return w
					}
					pick--
				}
			}
		}
		for w := range metas {
			metas[w].epv++
		}
	}
}

// OnHit implements cache.Policy: SHT training plus the hit-promotion
// policy of Table IV and the prefetch rules of §V-E.
func (p *Policy) OnHit(set, way int, info cache.AccessInfo) {
	m := &p.blocks[set*p.ways+way]
	if info.Kind == mem.Writeback {
		// Writeback hits neither train nor promote (§V-D).
		return
	}

	// SBP prediction must reflect the table state *before* this hit
	// trains it, so classify the current access's signature first.
	sig := replacement.Signature(info.PC, false)
	r, _ := p.classify(sig)

	// SHT training on the first re-reference (sampled sets only).
	if p.sampled.Sampled(set) && !m.writeback && !m.reused {
		m.reused = true
		if e := &p.sht[m.sig]; e.rc < rcMax {
			e.rc++
		}
	}

	// Prefetch-aware promotion (§V-E).
	if m.prefetched {
		if info.Kind == mem.Prefetch {
			// Re-referenced only by prefetches: leave EPV alone.
			return
		}
		// First demand touch of a prefetched block: most prefetched
		// blocks are single-use, so raise its eviction priority.
		m.prefetched = false
		m.epv = epvMax
		return
	}
	if info.Kind == mem.Prefetch {
		// Prefetch hit on a demand-resident block: no promotion.
		return
	}

	// Standard hit-promotion from the SBP prediction of the current
	// access's signature (Table IV).
	if r == lowReuse {
		if m.epv > 0 {
			m.epv--
		}
	} else if m.epv != 0 {
		// A store of an unchanged value would still dirty the line.
		m.epv = 0
	}
}

// OnFill implements cache.Policy: quantize the measured cost, store
// metadata, run DTRM, and apply the insertion policy of Table IV.
func (p *Policy) OnFill(set, way int, info cache.AccessInfo) {
	m := &p.blocks[set*p.ways+way]
	*m = blockMeta{valid: true}

	if info.Kind == mem.Writeback {
		// Writebacks are non-demand background requests: highest
		// eviction priority, no training metadata (§V-D).
		m.writeback = true
		m.epv = epvMax
		p.stats.InsertWriteback++
		p.stats.InsertEPV[m.epv]++
		return
	}

	cost := p.costOf(info)
	m.sig = replacement.Signature(info.PC, info.Kind == mem.Prefetch)
	m.pmcs = p.quantizePMCS(cost)
	m.prefetched = info.Kind == mem.Prefetch
	p.dtrmOnMiss(cost)

	r, c := p.classify(m.sig)
	switch r {
	case highReuse:
		m.epv = 0
		p.stats.InsertHighReuse++
	case lowReuse:
		m.epv = epvMax
		p.stats.InsertLowReuse++
	default:
		p.stats.InsertModerate++
		// Moderate-Reuse blocks are where concurrency-awareness
		// bites: keep High-Cost blocks, shed Low-Cost ones.
		switch c {
		case lowCost:
			m.epv = epvMax
			p.stats.InsertLowCost++
		case highCost:
			m.epv = 0
			p.stats.InsertHighCost++
		default:
			m.epv = 2
		}
	}
	p.stats.InsertEPV[m.epv]++
}

// OnEvict implements cache.Policy: train RC on dead blocks and PD
// from the evicted block's PMCS (§V-B), sampled sets only.
func (p *Policy) OnEvict(set, way int, info cache.AccessInfo) {
	m := &p.blocks[set*p.ways+way]
	if !m.valid || m.writeback || !p.sampled.Sampled(set) {
		return
	}
	e := &p.sht[m.sig]
	if !m.reused && e.rc > 0 {
		e.rc--
	}
	switch m.pmcs {
	case 0:
		// Future misses from this signature are predicted cheap.
		if e.pd > 0 {
			e.pd--
		}
	case 3:
		if e.pd < pdMax {
			e.pd++
		}
	}
}

// CheckInvariants verifies the policy's hardware-budget invariants:
// every block's EPV fits the 2-bit field (∈ [0, epvMax]) and every
// SHT counter fits its 3-bit field. The simulator's opt-in runtime
// invariant checker calls it each interval; a violation means the
// metadata was corrupted (by a bug or an injected fault).
func (p *Policy) CheckInvariants() error {
	for i := range p.blocks {
		if epv := p.blocks[i].epv; epv > epvMax {
			return fmt.Errorf("care: set %d way %d EPV %d exceeds 2-bit ceiling %d", i/p.ways, i%p.ways, epv, epvMax)
		}
	}
	for sig := range p.sht {
		if e := p.sht[sig]; e.rc > rcMax || e.pd > pdMax {
			return fmt.Errorf("care: SHT entry %#x out of range (rc=%d pd=%d)", sig, e.rc, e.pd)
		}
	}
	return nil
}

// CorruptMetadata flips the high bit of the block's EPV — a
// fault-injection hook modelling a bit flip in the replacement
// metadata array. The resulting EPV (4..7) violates the 2-bit
// invariant CheckInvariants enforces. It reports whether (set, way)
// was in range.
func (p *Policy) CorruptMetadata(set, way int) bool {
	if set < 0 || way < 0 || way >= p.ways || set*p.ways+way >= len(p.blocks) {
		return false
	}
	p.blocks[set*p.ways+way].epv ^= 1 << 2
	return true
}
