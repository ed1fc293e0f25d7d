package replacement

import "care/internal/cache"

func init() {
	Register("lru", func(cores int) cache.Policy { return NewLRU() })
	Register("lip", func(cores int) cache.Policy { return NewLIP() })
	Register("bip", func(cores int) cache.Policy { return NewBIP() })
	Register("dip", func(cores int) cache.Policy { return NewDIP() })
}

// LRU is true least-recently-used replacement: the baseline of every
// comparison in the paper.
type LRU struct {
	stamp [][]uint64
	clock uint64
}

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements cache.Policy.
func (p *LRU) Name() string { return "lru" }

// Init implements cache.Policy.
func (p *LRU) Init(sets, ways int) {
	p.stamp = make([][]uint64, sets)
	backing := make([]uint64, sets*ways)
	for i := range p.stamp {
		p.stamp[i] = backing[i*ways : (i+1)*ways]
	}
}

func (p *LRU) touch(set, way int) {
	p.clock++
	p.stamp[set][way] = p.clock
}

// Victim implements cache.Policy: evict the oldest stamp.
func (p *LRU) Victim(set int, blocks []cache.Block, info cache.AccessInfo) int {
	best, bestStamp := 0, p.stamp[set][0]
	for w := 1; w < len(blocks); w++ {
		if p.stamp[set][w] < bestStamp {
			best, bestStamp = w, p.stamp[set][w]
		}
	}
	return best
}

// OnHit implements cache.Policy.
func (p *LRU) OnHit(set, way int, blocks []cache.Block, info cache.AccessInfo) {
	p.touch(set, way)
}

// OnFill implements cache.Policy.
func (p *LRU) OnFill(set, way int, blocks []cache.Block, info cache.AccessInfo) {
	p.touch(set, way)
}

// OnEvict implements cache.Policy.
func (p *LRU) OnEvict(set, way int, evicted cache.Block, info cache.AccessInfo) {}

// lipBase is the shared machinery of LIP/BIP/DIP (Qureshi et al.,
// "Adaptive Insertion Policies for High Performance Caching"): LRU
// order maintained per set, with the *insertion position* varied.
type lipBase struct {
	LRU
	rng xorshift
}

// insertLRU places a freshly filled way at the LRU end so it is the
// next victim unless re-referenced.
func (p *lipBase) insertLRU(set, way int) {
	// A stamp below every current stamp makes the way LRU. Zero works
	// because stamps grow monotonically from 1.
	p.stamp[set][way] = 0
}

// LIP inserts every fill at the LRU position.
type LIP struct{ lipBase }

// NewLIP returns an LRU-insertion policy.
func NewLIP() *LIP { return &LIP{lipBase{rng: newXorshift(2)}} }

// Name implements cache.Policy.
func (p *LIP) Name() string { return "lip" }

// OnFill implements cache.Policy.
func (p *LIP) OnFill(set, way int, blocks []cache.Block, info cache.AccessInfo) {
	p.insertLRU(set, way)
}

// BIP inserts at LRU except for 1-in-32 fills which go to MRU,
// letting it retain part of a thrashing working set.
type BIP struct {
	lipBase
	// Epsilon is the 1-in-N MRU insertion rate.
	Epsilon int
}

// NewBIP returns a bimodal-insertion policy with the canonical 1/32
// bimodal throttle.
func NewBIP() *BIP { return &BIP{lipBase: lipBase{rng: newXorshift(3)}, Epsilon: 32} }

// Name implements cache.Policy.
func (p *BIP) Name() string { return "bip" }

// OnFill implements cache.Policy.
func (p *BIP) OnFill(set, way int, blocks []cache.Block, info cache.AccessInfo) {
	if p.rng.intn(p.Epsilon) == 0 {
		p.touch(set, way) // MRU
	} else {
		p.insertLRU(set, way)
	}
}

// DIP set-duels LRU against BIP and follows the winner.
type DIP struct {
	lipBase
	duel    *dueling
	Epsilon int
}

// NewDIP returns a dynamic-insertion policy.
func NewDIP() *DIP { return &DIP{lipBase: lipBase{rng: newXorshift(4)}, Epsilon: 32} }

// Name implements cache.Policy.
func (p *DIP) Name() string { return "dip" }

// Init implements cache.Policy.
func (p *DIP) Init(sets, ways int) {
	p.lipBase.Init(sets, ways)
	p.duel = newDueling(sets, 32)
}

// OnFill implements cache.Policy. Leader-set misses steer PSEL; the
// fill itself follows the set's policy (A = LRU, B = BIP).
func (p *DIP) OnFill(set, way int, blocks []cache.Block, info cache.AccessInfo) {
	p.duel.onMiss(set)
	if p.duel.useA(set) {
		p.touch(set, way) // LRU policy inserts at MRU
		return
	}
	if p.rng.intn(p.Epsilon) == 0 {
		p.touch(set, way)
	} else {
		p.insertLRU(set, way)
	}
}
