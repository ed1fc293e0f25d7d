package replacement

import (
	"care/internal/checkpoint"
	"care/internal/mem"
)

// This file gives every policy in the zoo a Checkpoint method
// (checkpoint.Component) over its dynamic state. Structural state
// that Init rebuilds deterministically (leader-set maps, sampling
// strides, geometry) is not walked; a restore targets a freshly
// Init'd policy of identical geometry, whose tables fix every shape.
// Policies that embed another (LIP in LRU, SRRIP in rripBase) inherit
// its walk unless they add state of their own, and then walk the
// embedded part first.

// Checkpoint implements checkpoint.Component.
func (p *LRU) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.stamp, checkpoint.Uint)
	checkpoint.Uint(s, &p.clock)
}

// Checkpoint implements checkpoint.Component.
func (p *Random) Checkpoint(s *checkpoint.State) { checkpoint.Uint(s, &p.rng) }

// Checkpoint implements checkpoint.Component for LIP and BIP.
func (p *lipBase) Checkpoint(s *checkpoint.State) {
	p.LRU.Checkpoint(s)
	checkpoint.Uint(s, &p.rng)
}

// Checkpoint implements checkpoint.Component.
func (p *DIP) Checkpoint(s *checkpoint.State) {
	p.lipBase.Checkpoint(s)
	checkpoint.Int(s, &p.duel.psel)
}

// Checkpoint implements checkpoint.Component for SRRIP and PACMan.
func (p *rripBase) Checkpoint(s *checkpoint.State) { checkpoint.Grid(s, p.rrpv, checkpoint.Uint) }

// Checkpoint implements checkpoint.Component.
func (p *BRRIP) Checkpoint(s *checkpoint.State) {
	p.rripBase.Checkpoint(s)
	checkpoint.Uint(s, &p.rng)
}

// Checkpoint implements checkpoint.Component.
func (p *DRRIP) Checkpoint(s *checkpoint.State) {
	p.rripBase.Checkpoint(s)
	checkpoint.Uint(s, &p.rng)
	checkpoint.Int(s, &p.duel.psel)
}

// Checkpoint implements checkpoint.Component.
func (p *SHiP) Checkpoint(s *checkpoint.State) {
	p.rripBase.Checkpoint(s)
	checkpoint.Each(s, p.shct, checkpoint.Uint)
	checkpoint.Grid(s, p.sig, checkpoint.Uint)
	checkpoint.Grid(s, p.outcome, (*checkpoint.State).Bool)
}

// Checkpoint implements checkpoint.Component.
func (p *SHiPPP) Checkpoint(s *checkpoint.State) {
	p.rripBase.Checkpoint(s)
	checkpoint.Each(s, p.shct, checkpoint.Uint)
	checkpoint.Grid(s, p.sig, checkpoint.Uint)
	checkpoint.Grid(s, p.outcome, (*checkpoint.State).Bool)
	checkpoint.Grid(s, p.wb, (*checkpoint.State).Bool)
}

// walkOptgens walks the sampled sets' OPTgen occupancy vectors;
// restoring rebuilds each vector for ways.
func walkOptgens(s *checkpoint.State, m map[int]*optgen, ways int) {
	checkpoint.Map(s, m, func(s *checkpoint.State, og **optgen) {
		if s.Restoring() {
			*og = newOptgen(ways)
		}
		checkpoint.Each(s, (*og).occupancy, checkpoint.Uint)
		checkpoint.Uint(s, &(*og).now)
	})
}

// Checkpoint implements checkpoint.Component.
func (p *Hawkeye) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.rrpv, checkpoint.Uint)
	checkpoint.Grid(s, p.fillSig, checkpoint.Uint)
	checkpoint.Each(s, p.pred.counters, checkpoint.Uint)
	walkOptgens(s, p.optgens, p.ways)
	checkpoint.Map(s, p.samplers, func(s *checkpoint.State, sm **hawkeyeSampler) {
		if s.Restoring() {
			*sm = newHawkeyeSampler(8 * p.ways)
		}
		checkpoint.Slice(s, &(*sm).order, checkpoint.Uint)
		checkpoint.Map(s, (*sm).info, func(s *checkpoint.State, i *samplerInfo) {
			checkpoint.Uint(s, &i.quanta)
			checkpoint.Uint(s, &i.sig)
		})
	})
}

// walkFeature walks a captured ISVM feature vector.
func walkFeature(s *checkpoint.State, f *gliderFeature) {
	checkpoint.Uint(s, &f.row)
	for i := range f.idxs {
		checkpoint.Uint(s, &f.idxs[i])
	}
}

// Checkpoint implements checkpoint.Component.
func (p *Glider) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.rrpv, checkpoint.Uint)
	checkpoint.Grid(s, p.fillFeat, walkFeature)
	checkpoint.Each(s, p.table, func(s *checkpoint.State, v *isvm) {
		for i := range v {
			checkpoint.Int(s, &v[i])
		}
	})
	checkpoint.Each(s, p.history, func(s *checkpoint.State, h *[]mem.Addr) {
		checkpoint.Slice(s, h, checkpoint.Uint)
	})
	walkOptgens(s, p.optgens, p.ways)
	checkpoint.Map(s, p.samplers, func(s *checkpoint.State, sm **gliderSampler) {
		if s.Restoring() {
			*sm = newGliderSampler(8 * p.ways)
		}
		checkpoint.Slice(s, &(*sm).order, checkpoint.Uint)
		checkpoint.Map(s, (*sm).info, func(s *checkpoint.State, i *gliderSamplerInfo) {
			checkpoint.Uint(s, &i.quanta)
			walkFeature(s, &i.feat)
		})
	})
}

// Checkpoint implements checkpoint.Component.
func (p *Mockingjay) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.etr, checkpoint.Int)
	checkpoint.Each(s, p.rdp, checkpoint.Int)
	checkpoint.Map(s, p.clock, checkpoint.Uint)
	checkpoint.Map(s, p.samplers, func(s *checkpoint.State, m *map[uint64]*mjSamplerEntry) {
		if s.Restoring() {
			*m = make(map[uint64]*mjSamplerEntry)
		}
		checkpoint.Map(s, *m, func(s *checkpoint.State, e **mjSamplerEntry) {
			if s.Restoring() {
				*e = new(mjSamplerEntry)
			}
			checkpoint.Uint(s, &(*e).lastTime)
			checkpoint.Uint(s, &(*e).sig)
		})
	})
	checkpoint.Map(s, p.order, func(s *checkpoint.State, o *[]uint64) {
		checkpoint.Slice(s, o, checkpoint.Uint)
	})
}

// Checkpoint implements checkpoint.Component.
func (p *LIN) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.stamp, checkpoint.Uint)
	checkpoint.Grid(s, p.costq, checkpoint.Uint)
	checkpoint.Uint(s, &p.clock)
}

// Checkpoint implements checkpoint.Component.
func (p *SBAR) Checkpoint(s *checkpoint.State) {
	p.lin.Checkpoint(s)
	p.lru.Checkpoint(s)
	checkpoint.Int(s, &p.duel.psel)
}

// Checkpoint implements checkpoint.Component.
func (p *EAF) Checkpoint(s *checkpoint.State) {
	p.rripBase.Checkpoint(s)
	checkpoint.Uint(s, &p.rng)
	checkpoint.Each(s, p.filter, checkpoint.Uint)
	checkpoint.Int(s, &p.insertions)
}

// Checkpoint implements checkpoint.Component.
func (p *RLR) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.age, checkpoint.Uint)
	checkpoint.Grid(s, p.typeDemand, (*checkpoint.State).Bool)
	checkpoint.Grid(s, p.wasHit, (*checkpoint.State).Bool)
	checkpoint.Each(s, p.reuseEWMA, checkpoint.Uint)
}

// Checkpoint implements checkpoint.Component.
func (p *LACS) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.counter, checkpoint.Int)
	checkpoint.Grid(s, p.stamp, checkpoint.Uint)
	checkpoint.Uint(s, &p.clock)
}
