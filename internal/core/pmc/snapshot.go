package pmc

import "care/internal/checkpoint"

// Checkpoint implements checkpoint.Component on a Logic built for the
// same core count, with every core caught up to the checkpoint's cycle.
// Base-access phases can outlive a quiesce drain (their end cycles sit
// in the future), so their end cycles travel with the checkpoint even
// though the MSHRs are empty. The per-core clocks do not: a restored
// system restarts them at its cycle (cache.SetClock).
func (l *Logic) Checkpoint(s *checkpoint.State) {
	checkpoint.Each(s, l.baseEnds, func(s *checkpoint.State, ends *[]uint64) {
		checkpoint.Slice(s, ends, checkpoint.Uints)
	})
	checkpoint.Table(s, l.activePureMissCycles, checkpoint.Uints)
	checkpoint.Table(s, l.overlapCycles, checkpoint.Uints)
	checkpoint.Table(s, l.accessCount, checkpoint.Uints)
}
