package replacement

import (
	"care/internal/cache"
	"care/internal/mem"
)

// hawkeyeMaxRRPV is Hawkeye's 3-bit ageing counter ceiling.
const hawkeyeMaxRRPV = 7

// optgen reconstructs Belady's OPT decisions over a window of past
// accesses to one sampled set (Jain & Lin, ISCA 2016). The occupancy
// vector records, per time quantum, how many OPT-cached blocks' usage
// intervals cover that quantum; an interval fits iff every quantum it
// crosses is below the cache's associativity.
type optgen struct {
	occupancy []uint8
	ways      uint8
	now       uint64 // current quantum (monotonic)
}

func newOptgen(ways int) *optgen {
	return &optgen{occupancy: make([]uint8, 8*ways), ways: uint8(ways)}
}

// advance opens a new quantum for the next access.
func (o *optgen) advance() {
	o.now++
	o.occupancy[o.now%uint64(len(o.occupancy))] = 0
}

// inWindow reports whether a previous quantum is still covered by the
// ring buffer.
func (o *optgen) inWindow(prev uint64) bool {
	return o.now-prev < uint64(len(o.occupancy))
}

// shouldCache decides whether OPT would have kept the block whose
// last use was at quantum prev, and if so marks its interval
// occupied.
func (o *optgen) shouldCache(prev uint64) bool {
	if !o.inWindow(prev) {
		return false
	}
	n := uint64(len(o.occupancy))
	for q := prev; q < o.now; q++ {
		if o.occupancy[q%n] >= o.ways {
			return false
		}
	}
	for q := prev; q < o.now; q++ {
		o.occupancy[q%n]++
	}
	return true
}

// hawkeyeSampler tracks the last access (quantum + PC) of recently
// seen blocks in one sampled set.
type hawkeyeSampler struct {
	order []uint64 // tags, oldest first
	info  map[uint64]samplerInfo
	cap   int
}

type samplerInfo struct {
	quanta uint64
	sig    uint16
}

func newHawkeyeSampler(capacity int) *hawkeyeSampler {
	return &hawkeyeSampler{order: make([]uint64, 0, capacity), info: make(map[uint64]samplerInfo, capacity), cap: capacity}
}

// lookup returns the previous access info for tag.
func (s *hawkeyeSampler) lookup(tag uint64) (samplerInfo, bool) {
	i, ok := s.info[tag]
	return i, ok
}

// insert records tag's access, returning the evicted victim (oldest)
// if the sampler overflowed.
func (s *hawkeyeSampler) insert(tag uint64, i samplerInfo) (samplerInfo, bool) {
	if _, exists := s.info[tag]; exists {
		s.info[tag] = i
		moveToBack(s.order, tag)
		return samplerInfo{}, false
	}
	s.info[tag] = i
	victimTag, overflow := pushOrder(&s.order, tag, s.cap)
	if !overflow {
		return samplerInfo{}, false
	}
	victim := s.info[victimTag]
	delete(s.info, victimTag)
	return victim, true
}

// moveToBack moves tag, if present, to the end of order, shifting the
// tags after it down by one. It works in place, so a sampler's order
// never reallocates once it has reached its capacity.
func moveToBack(order []uint64, tag uint64) {
	for k, tg := range order {
		if tg == tag {
			copy(order[k:], order[k+1:])
			order[len(order)-1] = tag
			return
		}
	}
}

// pushOrder appends tag to *order; once the order holds capacity tags,
// each push also drops the oldest and returns it. The drop shifts the
// rest down in place instead of re-slicing past the front, which would
// walk the backing array forward and make a later append reallocate.
func pushOrder(order *[]uint64, tag uint64, capacity int) (oldest uint64, dropped bool) {
	o := *order
	if len(o) < capacity {
		*order = append(o, tag)
		return 0, false
	}
	oldest = o[0]
	copy(o, o[1:])
	o[len(o)-1] = tag
	return oldest, true
}

// hawkeyePredictor is the PC-indexed 3-bit counter table.
type hawkeyePredictor struct {
	counters []uint8
}

func newHawkeyePredictor() *hawkeyePredictor {
	p := &hawkeyePredictor{counters: make([]uint8, shctSize)}
	for i := range p.counters {
		p.counters[i] = 4 // start weakly friendly
	}
	return p
}

func (p *hawkeyePredictor) friendly(sig uint16) bool { return p.counters[sig] >= 4 }

func (p *hawkeyePredictor) train(sig uint16, positive bool) {
	if positive {
		if p.counters[sig] < 7 {
			p.counters[sig]++
		}
	} else if p.counters[sig] > 0 {
		p.counters[sig]--
	}
}

// Hawkeye learns from OPTgen's reconstruction of Belady's optimal
// policy and classifies each PC as cache-friendly or cache-averse
// (Jain & Lin, ISCA 2016).
type Hawkeye struct {
	// rrpv and fillSig hold each block's age and fill signature: way
	// w of set s at index s*ways+w.
	rrpv     []uint8
	fillSig  []uint16
	pred     *hawkeyePredictor
	sampled  SampledSets
	optgens  map[int]*optgen
	samplers map[int]*hawkeyeSampler
	ways     int
}

// NewHawkeye returns a Hawkeye policy.
func NewHawkeye() *Hawkeye { return &Hawkeye{} }

// Name implements cache.Policy.
func (p *Hawkeye) Name() string { return "hawkeye" }

// Init implements cache.Policy.
func (p *Hawkeye) Init(sets, ways int) {
	p.ways = ways
	p.rrpv = make([]uint8, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = hawkeyeMaxRRPV
	}
	p.fillSig = make([]uint16, sets*ways)
	p.pred = newHawkeyePredictor()
	p.sampled = NewSampledSets(sets, 64)
	p.optgens = make(map[int]*optgen)
	p.samplers = make(map[int]*hawkeyeSampler)
}

// observe trains the predictor from one demand access to a sampled
// set, driving OPTgen.
func (p *Hawkeye) observe(set int, info cache.AccessInfo) {
	if !p.sampled.Sampled(set) || info.Kind == mem.Writeback {
		return
	}
	og, ok := p.optgens[set]
	if !ok {
		og = newOptgen(p.ways)
		p.optgens[set] = og
		p.samplers[set] = newHawkeyeSampler(8 * p.ways)
	}
	sampler := p.samplers[set]
	tag := info.Addr.BlockID()
	sig := Signature(info.PC, info.Kind == mem.Prefetch)

	if prev, seen := sampler.lookup(tag); seen {
		// The block was reused: would OPT have kept it?
		p.pred.train(prev.sig, og.shouldCache(prev.quanta))
	}
	if victim, overflow := sampler.insert(tag, samplerInfo{quanta: og.now, sig: sig}); overflow {
		// Fell out of the observation window without reuse: averse.
		p.pred.train(victim.sig, false)
	}
	og.advance()
}

// Victim implements cache.Policy: prefer a cache-averse block
// (RRPV==max); otherwise evict the oldest friendly block and detrain
// its fill PC, Hawkeye's signature move.
func (p *Hawkeye) Victim(set int, info cache.AccessInfo) int {
	base := set * p.ways
	best, bestVal := 0, p.rrpv[base]
	for w, v := range p.rrpv[base+1 : base+p.ways] {
		if v > bestVal {
			best, bestVal = w+1, v
		}
	}
	if bestVal != hawkeyeMaxRRPV {
		p.pred.train(p.fillSig[base+best], false)
	}
	return best
}

// OnHit implements cache.Policy.
func (p *Hawkeye) OnHit(set, way int, info cache.AccessInfo) {
	p.observe(set, info)
	if info.Kind == mem.Writeback {
		return
	}
	sig := Signature(info.PC, info.Kind == mem.Prefetch)
	if p.pred.friendly(sig) {
		p.rrpv[set*p.ways+way] = 0
	} else {
		p.rrpv[set*p.ways+way] = hawkeyeMaxRRPV
	}
}

// OnFill implements cache.Policy.
func (p *Hawkeye) OnFill(set, way int, info cache.AccessInfo) {
	base := set * p.ways
	if info.Kind == mem.Writeback {
		p.rrpv[base+way] = hawkeyeMaxRRPV
		p.fillSig[base+way] = 0
		return
	}
	p.observe(set, info)
	sig := Signature(info.PC, info.Kind == mem.Prefetch)
	p.fillSig[base+way] = sig
	if !p.pred.friendly(sig) {
		p.rrpv[base+way] = hawkeyeMaxRRPV
		return
	}
	p.rrpv[base+way] = 0
	// Age the other friendly blocks so older ones become candidates.
	row := p.rrpv[base : base+p.ways]
	for w := range row {
		if w != way && row[w] < hawkeyeMaxRRPV-1 {
			row[w]++
		}
	}
}

// OnEvict implements cache.Policy.
func (p *Hawkeye) OnEvict(set, way int, info cache.AccessInfo) {}
