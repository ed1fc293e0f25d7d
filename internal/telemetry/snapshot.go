package telemetry

import (
	"fmt"

	"care/internal/checkpoint"
)

// Checkpoint implements checkpoint.Component on a bound collector
// with identical interval and core count. It walks the interval start
// first, then the whole completed series (see walkSeries), the
// watermarks, the delta baseline and the in-progress occupancy
// histogram, so a resumed run's Series() matches the uninterrupted
// run's, warmup included.
func (c *Collector) Checkpoint(s *checkpoint.State) {
	if s.Restoring() && !c.bound {
		s.Fail(fmt.Errorf("%w: telemetry: restore target is unbound", checkpoint.ErrNotCheckpointable))
		return
	}
	checkpoint.Uint(s, &c.start)
	c.walkSeries(s)
	checkpoint.Uint(s, &c.next)
	checkpoint.Uint(s, &c.nextOcc)
	checkpoint.Int(s, &c.index)
	s.Bool(&c.warm)
	checkpoint.Uints(s, c.occHist[:])
	p := &c.prev
	for _, xs := range [][]uint64{p.coreInstr, p.coreCycles, p.coreMem, p.coreStall, p.coreLLCMiss} {
		checkpoint.Table(s, xs, checkpoint.Uints)
	}
	for _, x := range []*uint64{
		&p.llcAccesses, &p.llcHits, &p.llcMisses, &p.llcPure, &p.llcMSHRStall,
		&p.dramReads, &p.dramWrites, &p.dramRowHits, &p.dramRowMisses,
		&p.careRaises, &p.careLowers, &p.careCostly,
	} {
		checkpoint.Uint(s, x)
	}
	s.Float64(&p.llcPMCSum)
	checkpoint.Uints(s, p.careEPV[:])
	if s.Restoring() {
		c.closed = false
	}
}

// walkSeries walks the completed-interval count and the intervals,
// oldest first. Every interval but a final partial one spans at least
// the collection interval and ends by the stored start cycle, so a
// count above start/interval+1 is refused before anything is sized
// from it. Restoring grows the store only as intervals decode.
func (c *Collector) walkSeries(s *checkpoint.State) {
	n := c.count
	checkpoint.Int(s, &n)
	if !s.Restoring() {
		for i := range n {
			checkpoint.Plain(s, &c.slots[i])
		}
		return
	}
	if s.Err() == nil && (n < 0 || uint64(n) > c.start/c.interval+1) {
		s.Fail(fmt.Errorf("%w: telemetry: %d completed intervals by cycle %d at interval %d",
			checkpoint.ErrCorrupt, n, c.start, c.interval))
	}
	c.count = 0
	for c.count < n && s.Err() == nil {
		var iv Interval
		checkpoint.Plain(s, &iv)
		if s.Err() == nil && (len(iv.Cores) != len(c.cores) || (iv.CARE == nil) != (c.care == nil)) {
			s.Fail(checkpoint.Mismatchf("telemetry: interval %d has %d cores (CARE %v), collector has %d (CARE %v)",
				iv.Index, len(iv.Cores), iv.CARE != nil, len(c.cores), c.care != nil))
		}
		if s.Err() != nil {
			return
		}
		if c.count == len(c.slots) {
			c.grow()
		}
		c.slots[c.count] = iv
		c.count++
	}
}
