package replacement

import (
	"care/internal/cache"
	"care/internal/mem"
)

// Glider (Shi et al., MICRO 2019) replaces Hawkeye's per-PC counters
// with an Integer Support Vector Machine over the history of recent
// load PCs, distilled from an offline LSTM. Each load PC owns a small
// weight vector; the features are 4-bit hashes of the last
// historyLen PCs observed from the same core. Training labels come
// from the same OPTgen reconstruction Hawkeye uses.
const (
	gliderHistoryLen = 5
	gliderTableBits  = 11 // 2048 ISVMs
	gliderWeights    = 16
	gliderThreshold  = 30 // training margin
	gliderWeightMax  = 31
	gliderWeightMin  = -32
)

type isvm [gliderWeights]int8

// gliderFeature is the feature vector captured at access time: the
// ISVM row of the accessing PC plus the weight indexes selected by
// the PC history.
type gliderFeature struct {
	row  uint16
	idxs [gliderHistoryLen]uint8
}

// Glider is the ISVM-based policy.
type Glider struct {
	// rrpv and fillFeat hold each block's age and fill feature vector:
	// way w of set s at index s*ways+w.
	rrpv     []uint8
	fillFeat []gliderFeature
	table    []isvm
	history  [][]mem.Addr // per-core PC history, most recent last
	sampled  SampledSets
	optgens  map[int]*optgen
	samplers map[int]*gliderSampler
	ways     int
}

type gliderSampler struct {
	order []uint64
	info  map[uint64]gliderSamplerInfo
	cap   int
}

type gliderSamplerInfo struct {
	quanta uint64
	feat   gliderFeature
}

func newGliderSampler(capacity int) *gliderSampler {
	return &gliderSampler{order: make([]uint64, 0, capacity), info: make(map[uint64]gliderSamplerInfo, capacity), cap: capacity}
}

func (s *gliderSampler) lookup(tag uint64) (gliderSamplerInfo, bool) {
	i, ok := s.info[tag]
	return i, ok
}

func (s *gliderSampler) insert(tag uint64, i gliderSamplerInfo) (gliderSamplerInfo, bool) {
	if _, exists := s.info[tag]; exists {
		s.info[tag] = i
		moveToBack(s.order, tag)
		return gliderSamplerInfo{}, false
	}
	s.info[tag] = i
	victimTag, overflow := pushOrder(&s.order, tag, s.cap)
	if !overflow {
		return gliderSamplerInfo{}, false
	}
	victim := s.info[victimTag]
	delete(s.info, victimTag)
	return victim, true
}

// NewGlider returns a Glider policy for cores cores.
func NewGlider(cores int) *Glider {
	if cores < 1 {
		cores = 1
	}
	g := &Glider{history: make([][]mem.Addr, cores)}
	for i := range g.history {
		g.history[i] = make([]mem.Addr, 0, gliderHistoryLen)
	}
	return g
}

// Name implements cache.Policy.
func (p *Glider) Name() string { return "glider" }

// Init implements cache.Policy.
func (p *Glider) Init(sets, ways int) {
	p.ways = ways
	p.rrpv = make([]uint8, sets*ways)
	for i := range p.rrpv {
		p.rrpv[i] = hawkeyeMaxRRPV
	}
	p.fillFeat = make([]gliderFeature, sets*ways)
	p.table = make([]isvm, 1<<gliderTableBits)
	p.sampled = NewSampledSets(sets, 64)
	p.optgens = make(map[int]*optgen)
	p.samplers = make(map[int]*gliderSampler)
}

// feature builds the ISVM row + weight indexes for an access.
func (p *Glider) feature(core int, pc mem.Addr) gliderFeature {
	if core < 0 || core >= len(p.history) {
		core = 0
	}
	var f gliderFeature
	h := uint64(pc)
	h ^= h >> gliderTableBits
	h ^= h >> (2 * gliderTableBits)
	f.row = uint16(h) & ((1 << gliderTableBits) - 1)
	// Feature 0 is the accessing PC itself; the rest come from the
	// per-core PC history register (Glider's PCHR includes the
	// current access).
	hist := p.history[core]
	for i := 0; i < gliderHistoryLen; i++ {
		hp := pc
		if i > 0 {
			if i-1 < len(hist) {
				hp = hist[len(hist)-i]
			} else {
				hp = 0
			}
		}
		hh := uint64(hp) + uint64(i)*0x9e3779b9
		hh ^= hh >> 7
		hh ^= hh >> 17
		f.idxs[i] = uint8(hh % gliderWeights)
	}
	return f
}

// pushHistory records pc in the core's PC history register.
func (p *Glider) pushHistory(core int, pc mem.Addr) {
	if core < 0 || core >= len(p.history) {
		core = 0
	}
	h := p.history[core]
	if len(h) < gliderHistoryLen {
		p.history[core] = append(h, pc)
		return
	}
	// Full: shift in place, so the register never reallocates.
	copy(h, h[1:])
	h[len(h)-1] = pc
}

// score sums the selected weights of the feature's ISVM.
func (p *Glider) score(f gliderFeature) int {
	sum := 0
	row := &p.table[f.row]
	for _, idx := range f.idxs {
		sum += int(row[idx])
	}
	return sum
}

// train nudges the feature's weights toward the OPT label, with the
// ISVM's fixed margin: stop reinforcing once confidently correct.
func (p *Glider) train(f gliderFeature, positive bool) {
	sum := p.score(f)
	row := &p.table[f.row]
	if positive {
		if sum >= gliderThreshold {
			return
		}
		for _, idx := range f.idxs {
			if row[idx] < gliderWeightMax {
				row[idx]++
			}
		}
		return
	}
	if sum <= -gliderThreshold {
		return
	}
	for _, idx := range f.idxs {
		if row[idx] > gliderWeightMin {
			row[idx]--
		}
	}
}

// observe drives OPTgen on sampled sets and trains the ISVM.
func (p *Glider) observe(set int, f gliderFeature, info cache.AccessInfo) {
	if !p.sampled.Sampled(set) || info.Kind == mem.Writeback {
		return
	}
	og, ok := p.optgens[set]
	if !ok {
		og = newOptgen(p.ways)
		p.optgens[set] = og
		p.samplers[set] = newGliderSampler(8 * p.ways)
	}
	sampler := p.samplers[set]
	tag := info.Addr.BlockID()
	if prev, seen := sampler.lookup(tag); seen {
		p.train(prev.feat, og.shouldCache(prev.quanta))
	}
	if victim, overflow := sampler.insert(tag, gliderSamplerInfo{quanta: og.now, feat: f}); overflow {
		p.train(victim.feat, false)
	}
	og.advance()
}

// Victim implements cache.Policy (same structure as Hawkeye).
func (p *Glider) Victim(set int, info cache.AccessInfo) int {
	base := set * p.ways
	best, bestVal := 0, p.rrpv[base]
	for w, v := range p.rrpv[base+1 : base+p.ways] {
		if v > bestVal {
			best, bestVal = w+1, v
		}
	}
	if bestVal != hawkeyeMaxRRPV {
		p.train(p.fillFeat[base+best], false)
	}
	return best
}

// OnHit implements cache.Policy.
func (p *Glider) OnHit(set, way int, info cache.AccessInfo) {
	if info.Kind == mem.Writeback {
		return
	}
	f := p.feature(info.Core, info.PC)
	p.observe(set, f, info)
	if p.score(f) >= 0 {
		p.rrpv[set*p.ways+way] = 0
	} else {
		p.rrpv[set*p.ways+way] = hawkeyeMaxRRPV
	}
	p.pushHistory(info.Core, info.PC)
}

// OnFill implements cache.Policy.
func (p *Glider) OnFill(set, way int, info cache.AccessInfo) {
	base := set * p.ways
	if info.Kind == mem.Writeback {
		p.rrpv[base+way] = hawkeyeMaxRRPV
		p.fillFeat[base+way] = gliderFeature{}
		return
	}
	f := p.feature(info.Core, info.PC)
	p.observe(set, f, info)
	p.fillFeat[base+way] = f
	if p.score(f) < 0 {
		p.rrpv[base+way] = hawkeyeMaxRRPV
	} else {
		p.rrpv[base+way] = 0
		row := p.rrpv[base : base+p.ways]
		for w := range row {
			if w != way && row[w] < hawkeyeMaxRRPV-1 {
				row[w]++
			}
		}
	}
	p.pushHistory(info.Core, info.PC)
}

// OnEvict implements cache.Policy.
func (p *Glider) OnEvict(set, way int, info cache.AccessInfo) {}
