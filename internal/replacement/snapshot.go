package replacement

import (
	"fmt"

	"care/internal/checkpoint"
	"care/internal/mem"
)

// This file gives every policy in the zoo a Checkpoint method
// (checkpoint.Component) over its dynamic state. Structural state
// that Init rebuilds deterministically (sampling strides, geometry)
// is not walked; a restore targets a freshly Init'd policy of
// identical geometry, whose tables fix every shape.
// Policies that embed another (SRRIP and SHiP++ embed rripBase)
// inherit its walk unless they add state of their own, and then walk
// the embedded part first. A stored value that indexes a table is range-checked as it
// is restored, so a forged checkpoint fails with ErrCorrupt instead
// of restoring a policy that later panics.

// walkSig walks a PC signature, which indexes a table of shctSize
// entries (SHiP++'s SHCT, Hawkeye's predictor, Mockingjay's RDP).
func walkSig(s *checkpoint.State, sig *uint16) { checkpoint.Index(s, sig, shctSize, "signature") }

// Checkpoint implements checkpoint.Component.
func (p *LRU) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.stamp, checkpoint.Uint)
	checkpoint.Uint(s, &p.clock)
}

// Checkpoint implements checkpoint.Component for SRRIP.
func (p *rripBase) Checkpoint(s *checkpoint.State) { checkpoint.Grid(s, p.rrpv, checkpoint.Uint) }

// Checkpoint implements checkpoint.Component.
func (p *SHiPPP) Checkpoint(s *checkpoint.State) {
	p.rripBase.Checkpoint(s)
	checkpoint.Each(s, p.shct, checkpoint.Uint)
	checkpoint.Grid(s, p.sig, walkSig)
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

// checkSamplers fails a restore unless the sets with an OPTgen are the
// sets with a sampler: observe creates both together and, finding a
// set's OPTgen, uses its sampler without looking.
func checkSamplers[V any](s *checkpoint.State, optgens map[int]*optgen, samplers map[int]V) {
	if !s.Restoring() || s.Err() != nil {
		return
	}
	same := len(optgens) == len(samplers)
	for set := range optgens {
		if _, ok := samplers[set]; !ok {
			same = false
		}
	}
	if !same {
		s.Fail(fmt.Errorf("%w: %d sampled sets have an OPTgen and %d a sampler, not the same sets",
			checkpoint.ErrCorrupt, len(optgens), len(samplers)))
	}
}

// Checkpoint implements checkpoint.Component.
func (p *Hawkeye) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.rrpv, checkpoint.Uint)
	checkpoint.Grid(s, p.fillSig, walkSig)
	checkpoint.Each(s, p.pred.counters, checkpoint.Uint)
	walkOptgens(s, p.optgens, p.ways)
	checkpoint.Map(s, p.samplers, func(s *checkpoint.State, sm **hawkeyeSampler) {
		if s.Restoring() {
			*sm = newHawkeyeSampler(8 * p.ways)
		}
		checkpoint.Slice(s, &(*sm).order, checkpoint.Uint)
		checkpoint.Map(s, (*sm).info, func(s *checkpoint.State, i *samplerInfo) {
			checkpoint.Uint(s, &i.quanta)
			walkSig(s, &i.sig)
		})
	})
	checkSamplers(s, p.optgens, p.samplers)
}

// walkFeature walks a captured ISVM feature vector: a row of the
// ISVM table and weight indexes within the row.
func walkFeature(s *checkpoint.State, f *gliderFeature) {
	checkpoint.Index(s, &f.row, 1<<gliderTableBits, "ISVM row")
	for i := range f.idxs {
		checkpoint.Index(s, &f.idxs[i], gliderWeights, "ISVM weight index")
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
	checkSamplers(s, p.optgens, p.samplers)
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
			walkSig(s, &(*e).sig)
		})
	})
	checkpoint.Map(s, p.order, func(s *checkpoint.State, o *[]uint64) {
		checkpoint.Slice(s, o, checkpoint.Uint)
	})
}
