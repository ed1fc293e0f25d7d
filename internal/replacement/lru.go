package replacement

import "care/internal/cache"

// LRU is true least-recently-used replacement: the baseline of every
// comparison in the paper.
type LRU struct {
	stamp []uint64 // way w of set s at stamp[s*ways+w]
	ways  int
	clock uint64
}

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements cache.Policy.
func (p *LRU) Name() string { return "lru" }

// Init implements cache.Policy.
func (p *LRU) Init(sets, ways int) {
	p.stamp = make([]uint64, sets*ways)
	p.ways = ways
}

func (p *LRU) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// Victim implements cache.Policy: evict the oldest stamp.
func (p *LRU) Victim(set int, info cache.AccessInfo) int {
	stamps := p.stamp[set*p.ways : (set+1)*p.ways]
	best, bestStamp := 0, stamps[0]
	for w, st := range stamps[1:] {
		if st < bestStamp {
			best, bestStamp = w+1, st
		}
	}
	return best
}

// OnHit implements cache.Policy.
func (p *LRU) OnHit(set, way int, info cache.AccessInfo) {
	p.touch(set, way)
}

// OnFill implements cache.Policy.
func (p *LRU) OnFill(set, way int, info cache.AccessInfo) {
	p.touch(set, way)
}

// OnEvict implements cache.Policy.
func (p *LRU) OnEvict(set, way int, info cache.AccessInfo) {}
