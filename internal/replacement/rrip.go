package replacement

import "care/internal/cache"

// maxRRPV is the saturating re-reference prediction value of the
// 2-bit RRIP family (Jaleel et al., ISCA 2010).
const maxRRPV = 3

// rripBase holds the RRPV array and the shared victim search.
type rripBase struct {
	rrpv []uint8 // way w of set s at rrpv[s*ways+w]
	ways int
}

func (p *rripBase) Init(sets, ways int) {
	p.rrpv = make([]uint8, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = maxRRPV
	}
	p.ways = ways
}

// victim finds the leftmost way with RRPV==max, aging the whole set
// until one exists (the SRRIP search loop).
func (p *rripBase) victim(set int) int {
	row := p.rrpv[set*p.ways : (set+1)*p.ways]
	for {
		for w, v := range row {
			if v >= maxRRPV {
				return w
			}
		}
		for w := range row {
			row[w]++
		}
	}
}

// setRRPV sets block i's RRPV to v on a hit, storing only when the
// value changes: a store of an unchanged value still dirties the
// cache line, which the next access from another core must fetch.
func (p *rripBase) setRRPV(i int, v uint8) {
	if p.rrpv[i] != v {
		p.rrpv[i] = v
	}
}

func (p *rripBase) OnEvict(set, way int, info cache.AccessInfo) {}

// SRRIP statically inserts blocks with a "long" re-reference
// prediction (max-1) and promotes to "near-immediate" (0) on hits.
type SRRIP struct{ rripBase }

// NewSRRIP returns a static RRIP policy.
func NewSRRIP() *SRRIP { return &SRRIP{} }

// Name implements cache.Policy.
func (p *SRRIP) Name() string { return "srrip" }

// Victim implements cache.Policy.
func (p *SRRIP) Victim(set int, info cache.AccessInfo) int {
	return p.victim(set)
}

// OnHit implements cache.Policy.
func (p *SRRIP) OnHit(set, way int, info cache.AccessInfo) {
	p.setRRPV(set*p.ways+way, 0)
}

// OnFill implements cache.Policy.
func (p *SRRIP) OnFill(set, way int, info cache.AccessInfo) {
	p.rrpv[set*p.ways+way] = maxRRPV - 1
}
