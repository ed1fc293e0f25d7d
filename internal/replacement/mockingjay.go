package replacement

import (
	"care/internal/cache"
	"care/internal/mem"
)

// Mockingjay (Shah, Jain & Lin, HPCA 2022) mimics Belady's MIN with
// *multi-class* predictions: instead of a friendly/averse bit it
// predicts each block's reuse distance and evicts the block whose
// next use is estimated to be furthest away. This implementation
// keeps the structure — a sampled reuse-distance measurement cache, a
// per-PC Reuse Distance Predictor (RDP) trained by temporal
// difference, and per-block Estimated Time Remaining (ETR) counters —
// at a reduced hardware budget.
const (
	// mockingjayInf marks "no reuse observed" (scan) predictions.
	mockingjayInf = 8191
	// mockingjayGranularity scales raw distances into ETR units.
	mockingjayGranularity = 8
	// mockingjayMaxRD caps measurable reuse distances.
	mockingjayMaxRD = 1024
)

type mjSamplerEntry struct {
	lastTime uint64
	sig      uint16
}

// Mockingjay implements cache.Policy.
type Mockingjay struct {
	etr     []int32 // way w of set s at etr[s*ways+w]
	rdp     []int32 // predicted reuse distance per signature; -1 unknown
	sampled SampledSets
	// Per sampled set: access clock and recently-seen tags.
	clock    map[int]uint64
	samplers map[int]map[uint64]mjSamplerEntry
	order    map[int][]uint64
	ways     int
}

// NewMockingjay returns a Mockingjay policy.
func NewMockingjay() *Mockingjay { return &Mockingjay{} }

// Name implements cache.Policy.
func (p *Mockingjay) Name() string { return "mockingjay" }

// Init implements cache.Policy.
func (p *Mockingjay) Init(sets, ways int) {
	p.ways = ways
	p.etr = make([]int32, sets*ways)
	p.rdp = make([]int32, shctSize)
	for i := range p.rdp {
		p.rdp[i] = -1
	}
	p.sampled = NewSampledSets(sets, 64)
	p.clock = make(map[int]uint64)
	p.samplers = make(map[int]map[uint64]mjSamplerEntry)
	p.order = make(map[int][]uint64)
}

// trainRDP moves the per-PC prediction toward an observed distance
// with Mockingjay's temporal-difference rule.
func (p *Mockingjay) trainRDP(sig uint16, observed int32) {
	cur := p.rdp[sig]
	if cur < 0 {
		p.rdp[sig] = observed
		return
	}
	// Weighted update: new = old + (observed-old)/2, saturating.
	nw := cur + (observed-cur)/2
	if nw < 0 {
		nw = 0
	}
	if nw > mockingjayInf {
		nw = mockingjayInf
	}
	p.rdp[sig] = nw
}

// observe runs the sampled reuse-distance measurement for an access.
func (p *Mockingjay) observe(set int, info cache.AccessInfo) {
	if !p.sampled.Sampled(set) || info.Kind == mem.Writeback {
		return
	}
	s, ok := p.samplers[set]
	if !ok {
		s = make(map[uint64]mjSamplerEntry)
		p.samplers[set] = s
	}
	p.clock[set]++
	now := p.clock[set]
	tag := info.Addr.BlockID()
	sig := Signature(info.PC, info.Kind == mem.Prefetch)

	if e, seen := s[tag]; seen {
		d := int32(now - e.lastTime)
		if d > mockingjayMaxRD {
			d = mockingjayInf
		}
		p.trainRDP(e.sig, d)
		s[tag] = mjSamplerEntry{lastTime: now, sig: sig}
		return
	}
	s[tag] = mjSamplerEntry{lastTime: now, sig: sig}
	order := p.order[set]
	victimTag, overflow := pushOrder(&order, tag, 8*p.ways)
	p.order[set] = order
	if overflow {
		if v, okv := s[victimTag]; okv {
			// Aged out without reuse: treat as a scan.
			p.trainRDP(v.sig, mockingjayInf)
			delete(s, victimTag)
		}
	}
}

// predictETR converts the RDP prediction for sig into ETR units.
func (p *Mockingjay) predictETR(sig uint16) int32 {
	rd := p.rdp[sig]
	if rd < 0 {
		// Unknown PC: assume a moderate distance so it is neither
		// protected nor instantly evicted.
		rd = int32(4 * p.ways * mockingjayGranularity / 2)
	}
	return rd / mockingjayGranularity
}

// ageSet decrements every ETR in set (toward the predicted reuse).
func (p *Mockingjay) ageSet(set int) {
	row := p.etr[set*p.ways : (set+1)*p.ways]
	for w := range row {
		if row[w] > -mockingjayInf {
			row[w]--
		}
	}
}

// Victim implements cache.Policy: evict the block with the largest
// absolute ETR (furthest predicted reuse, or most overdue).
func (p *Mockingjay) Victim(set int, info cache.AccessInfo) int {
	best, bestVal := 0, int32(-1)
	for w, v := range p.etr[set*p.ways : (set+1)*p.ways] {
		if v < 0 {
			v = -v
		}
		if v > bestVal {
			best, bestVal = w, v
		}
	}
	return best
}

// OnHit implements cache.Policy.
func (p *Mockingjay) OnHit(set, way int, info cache.AccessInfo) {
	p.observe(set, info)
	if info.Kind == mem.Writeback {
		return
	}
	p.ageSet(set)
	sig := Signature(info.PC, info.Kind == mem.Prefetch)
	p.etr[set*p.ways+way] = p.predictETR(sig)
}

// OnFill implements cache.Policy.
func (p *Mockingjay) OnFill(set, way int, info cache.AccessInfo) {
	if info.Kind == mem.Writeback {
		// Writebacks are given the largest ETR so they leave first.
		p.etr[set*p.ways+way] = mockingjayInf / mockingjayGranularity
		return
	}
	p.observe(set, info)
	p.ageSet(set)
	sig := Signature(info.PC, info.Kind == mem.Prefetch)
	p.etr[set*p.ways+way] = p.predictETR(sig)
}

// OnEvict implements cache.Policy.
func (p *Mockingjay) OnEvict(set, way int, info cache.AccessInfo) {}
