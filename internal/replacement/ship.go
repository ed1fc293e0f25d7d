package replacement

import (
	"care/internal/cache"
	"care/internal/mem"
)

// shctSize is the Signature History Counter Table size (16K entries,
// per the SHiP and CARE papers).
const shctSize = 1 << SignatureBits

// shctMax is the saturating counter ceiling (3-bit counters).
const shctMax = 7

// SHiPPP is SHiP++ (Young et al., CRC-2 2017). Its base, SHiP (Wu
// et al., MICRO 2011), is an SRRIP backbone whose insertion position
// is predicted per PC signature from whether past blocks of that
// signature were re-referenced before eviction. SHiP++ adds the
// enhancements the CARE paper builds on — prefetch-aware signatures
// (a prefetch bit in the signature), writeback-aware insertion
// (writebacks inserted distant and excluded from training), insertion
// at RRPV 0 for strongly-reused signatures, and demotion of
// prefetched blocks on their first demand hit.
type SHiPPP struct {
	rripBase
	shct []uint8
	// sig, outcome and wb hold each block's fill signature, whether it
	// was re-referenced, and whether a writeback filled it, indexed
	// like rrpv.
	sig     []uint16
	outcome []bool
	wb      []bool
	sampled SampledSets
}

// NewSHiPPP returns a SHiP++ policy.
func NewSHiPPP() *SHiPPP { return &SHiPPP{} }

// Name implements cache.Policy.
func (p *SHiPPP) Name() string { return "ship++" }

// Init implements cache.Policy.
func (p *SHiPPP) Init(sets, ways int) {
	p.rripBase.Init(sets, ways)
	p.shct = make([]uint8, shctSize)
	for i := range p.shct {
		p.shct[i] = 1
	}
	p.sig = make([]uint16, sets*ways)
	p.outcome = make([]bool, sets*ways)
	p.wb = make([]bool, sets*ways)
	p.sampled = NewSampledSets(sets, 64)
}

// Victim implements cache.Policy.
func (p *SHiPPP) Victim(set int, info cache.AccessInfo) int {
	return p.victim(set)
}

// OnHit implements cache.Policy.
func (p *SHiPPP) OnHit(set, way int, info cache.AccessInfo) {
	if info.Kind == mem.Prefetch {
		// Prefetch hits do not promote: a block repeatedly touched
		// only by the prefetcher is not demand-useful.
		return
	}
	i := set*p.ways + way
	if info.HitPrefetched {
		// First demand touch of a prefetched block: SHiP++ predicts
		// single-use prefetches and demotes instead of promoting.
		p.setRRPV(i, maxRRPV)
	} else {
		p.setRRPV(i, 0)
	}
	if p.sampled.Sampled(set) && !p.outcome[i] && !p.wb[i] {
		p.outcome[i] = true
		if s := p.sig[i]; p.shct[s] < shctMax {
			p.shct[s]++
		}
	}
}

// OnFill implements cache.Policy.
func (p *SHiPPP) OnFill(set, way int, info cache.AccessInfo) {
	i := set*p.ways + way
	if info.Kind == mem.Writeback {
		// Writebacks are background traffic: distant insertion, no
		// signature training.
		p.wb[i] = true
		p.outcome[i] = false
		p.sig[i] = 0
		p.rrpv[i] = maxRRPV
		return
	}
	s := Signature(info.PC, info.Kind == mem.Prefetch)
	p.sig[i] = s
	p.outcome[i] = false
	p.wb[i] = false
	switch {
	case p.shct[s] == 0:
		p.rrpv[i] = maxRRPV
	case p.shct[s] == shctMax && info.Kind != mem.Prefetch:
		// Strongly reused demand signature: intermediate insertion
		// per SHiP++'s refined placement.
		p.rrpv[i] = 0
	case info.Kind == mem.Prefetch:
		p.rrpv[i] = maxRRPV - 1
	default:
		p.rrpv[i] = maxRRPV - 1
	}
}

// OnEvict implements cache.Policy.
func (p *SHiPPP) OnEvict(set, way int, info cache.AccessInfo) {
	i := set*p.ways + way
	if p.sampled.Sampled(set) && !p.outcome[i] && !p.wb[i] {
		if s := p.sig[i]; p.shct[s] > 0 {
			p.shct[s]--
		}
	}
}
