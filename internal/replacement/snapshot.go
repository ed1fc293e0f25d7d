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
// entries (SHiP++'s SHCT, Hawkeye's predictor, Mockingjay's RDP);
// walkSigs walks a table of them.
func walkSig(s *checkpoint.State, sig *uint16) { checkpoint.Index(s, sig, shctSize, "signature") }

func walkSigs(s *checkpoint.State, sigs []uint16) { checkpoint.Indexes(s, sigs, shctSize, "signature") }

// Checkpoint implements checkpoint.Component.
func (p *LRU) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.stamp, p.ways, checkpoint.Uints)
	checkpoint.Uint(s, &p.clock)
}

// Checkpoint implements checkpoint.Component for SRRIP.
func (p *rripBase) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.rrpv, p.ways, checkpoint.Uints)
}

// Checkpoint implements checkpoint.Component.
func (p *SHiPPP) Checkpoint(s *checkpoint.State) {
	p.rripBase.Checkpoint(s)
	checkpoint.Table(s, p.shct, checkpoint.Uints)
	checkpoint.Grid(s, p.sig, p.ways, walkSigs)
	checkpoint.Grid(s, p.outcome, p.ways, checkpoint.Bools)
	checkpoint.Grid(s, p.wb, p.ways, checkpoint.Bools)
}

// walkOptgens walks the sampled sets' OPTgen occupancy vectors;
// restoring rebuilds each vector for ways.
func walkOptgens(s *checkpoint.State, m map[int]*optgen, ways int) {
	checkpoint.Map(s, m, func(s *checkpoint.State, og **optgen) {
		if s.Restoring() {
			*og = newOptgen(ways)
		}
		checkpoint.Table(s, (*og).occupancy, checkpoint.Uints)
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
	checkpoint.Grid(s, p.rrpv, p.ways, checkpoint.Uints)
	checkpoint.Grid(s, p.fillSig, p.ways, walkSigs)
	checkpoint.Table(s, p.pred.counters, checkpoint.Uints)
	walkOptgens(s, p.optgens, p.ways)
	checkpoint.Map(s, p.samplers, func(s *checkpoint.State, sm **hawkeyeSampler) {
		if s.Restoring() {
			*sm = newHawkeyeSampler(8 * p.ways)
		}
		checkpoint.Slice(s, &(*sm).order, checkpoint.Uints)
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
	checkpoint.Indexes(s, f.idxs[:], gliderWeights, "ISVM weight index")
}

// walkFeatures walks a set's captured feature vectors.
func walkFeatures(s *checkpoint.State, fs []gliderFeature) {
	for i := range fs {
		walkFeature(s, &fs[i])
	}
}

// Checkpoint implements checkpoint.Component.
func (p *Glider) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.rrpv, p.ways, checkpoint.Uints)
	checkpoint.Grid(s, p.fillFeat, p.ways, walkFeatures)
	checkpoint.Each(s, p.table, func(s *checkpoint.State, v *isvm) { checkpoint.Ints(s, v[:]) })
	checkpoint.Each(s, p.history, func(s *checkpoint.State, h *[]mem.Addr) {
		checkpoint.Slice(s, h, checkpoint.Uints)
	})
	walkOptgens(s, p.optgens, p.ways)
	checkpoint.Map(s, p.samplers, func(s *checkpoint.State, sm **gliderSampler) {
		if s.Restoring() {
			*sm = newGliderSampler(8 * p.ways)
		}
		checkpoint.Slice(s, &(*sm).order, checkpoint.Uints)
		checkpoint.Map(s, (*sm).info, func(s *checkpoint.State, i *gliderSamplerInfo) {
			checkpoint.Uint(s, &i.quanta)
			walkFeature(s, &i.feat)
		})
	})
	checkSamplers(s, p.optgens, p.samplers)
}

// Checkpoint implements checkpoint.Component.
func (p *Mockingjay) Checkpoint(s *checkpoint.State) {
	checkpoint.Grid(s, p.etr, p.ways, checkpoint.Ints)
	checkpoint.Table(s, p.rdp, checkpoint.Ints)
	checkpoint.Map(s, p.clock, checkpoint.Uint)
	checkpoint.Map(s, p.samplers, func(s *checkpoint.State, m *map[uint64]mjSamplerEntry) {
		if s.Restoring() {
			*m = make(map[uint64]mjSamplerEntry)
		}
		checkpoint.Map(s, *m, func(s *checkpoint.State, e *mjSamplerEntry) {
			checkpoint.Uint(s, &e.lastTime)
			walkSig(s, &e.sig)
		})
	})
	checkpoint.Map(s, p.order, func(s *checkpoint.State, o *[]uint64) {
		checkpoint.Slice(s, o, checkpoint.Uints)
	})
}
