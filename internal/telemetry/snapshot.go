package telemetry

import (
	"fmt"

	"care/internal/checkpoint"
)

// Checkpoint implements checkpoint.Component on a bound collector
// with identical interval, capacity, and core count. It walks the
// retained interval ring (first: the frame opens with the completed
// interval count), the watermarks, the delta baseline and the
// in-progress occupancy histogram. The sink is deliberately NOT part
// of the state: a resumed run attaches a fresh sink and the collector
// re-emits BeginSeries on the first post-resume interval.
func (c *Collector) Checkpoint(s *checkpoint.State) {
	if s.Restoring() && !c.bound {
		s.Fail(fmt.Errorf("%w: telemetry: restore target is unbound", checkpoint.ErrNotCheckpointable))
		return
	}
	c.walkRing(s)
	checkpoint.Uint(s, &c.next)
	checkpoint.Uint(s, &c.nextOcc)
	checkpoint.Uint(s, &c.start)
	checkpoint.Int(s, &c.index)
	s.Bool(&c.warm)
	for i := range c.occHist {
		checkpoint.Uint(s, &c.occHist[i])
	}
	p := &c.prev
	for _, xs := range [][]uint64{p.coreInstr, p.coreCycles, p.coreMem, p.coreStall, p.coreLLCMiss} {
		checkpoint.Each(s, xs, checkpoint.Uint)
	}
	for _, x := range []*uint64{
		&p.llcAccesses, &p.llcHits, &p.llcMisses, &p.llcPure, &p.llcMSHRStall,
		&p.dramReads, &p.dramWrites, &p.dramRowHits, &p.dramRowMisses,
		&p.careRaises, &p.careLowers, &p.careCostly,
	} {
		checkpoint.Uint(s, x)
	}
	s.Float64(&p.llcPMCSum)
	for i := range p.careEPV {
		checkpoint.Uint(s, &p.careEPV[i])
	}
	if s.Restoring() {
		c.began, c.closed, c.err = false, false, nil
	}
}

// walkRing walks the completed-interval count and the retained
// intervals, oldest first. Slot i%len(ring) holds interval i, so the
// retained intervals are the last min(count, capacity). Restoring
// fills the slots in place, keeping their preallocated core and CARE
// samples, so Series() after a resume matches the uninterrupted run.
func (c *Collector) walkRing(s *checkpoint.State) {
	checkpoint.Int(s, &c.count)
	n := s.Count(min(c.count, len(c.ring)))
	if s.Restoring() && s.Err() == nil {
		switch {
		case n > len(c.ring):
			s.Fail(checkpoint.Mismatchf("telemetry: checkpoint retains %d intervals, ring capacity is %d", n, len(c.ring)))
		case n > c.count:
			s.Fail(fmt.Errorf("%w: telemetry: %d retained intervals of %d completed", checkpoint.ErrCorrupt, n, c.count))
		}
	}
	for j := 0; j < n && s.Err() == nil; j++ {
		slot := &c.ring[(c.count-n+j)%len(c.ring)]
		if !s.Restoring() {
			checkpoint.Plain(s, slot)
			continue
		}
		var iv Interval
		checkpoint.Plain(s, &iv)
		cores, care := slot.Cores, slot.CARE
		if s.Err() == nil && (len(iv.Cores) != len(cores) || (iv.CARE == nil) != (care == nil)) {
			s.Fail(checkpoint.Mismatchf("telemetry: interval %d has %d cores (CARE %v), collector has %d (CARE %v)",
				iv.Index, len(iv.Cores), iv.CARE != nil, len(cores), care != nil))
		}
		if s.Err() != nil {
			return
		}
		*slot = iv
		slot.Cores = cores
		copy(cores, iv.Cores)
		slot.CARE = care
		if care != nil {
			*care = *iv.CARE
		}
	}
}
