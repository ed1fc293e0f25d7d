package cpu

import (
	"care/internal/checkpoint"
	"care/internal/trace"
)

// SetFetchFrozen stops (or resumes) dispatch while retirement keeps
// draining the ROB; the simulator uses it to reach a quiescent point.
// It wakes the core. Freezing changes SkipCycles' formula, so the
// caller accounts the cycles before it first (SkipCycles).
func (c *Core) SetFetchFrozen(frozen bool) {
	c.frozen = frozen
	c.awake = true
}

// Quiesced reports whether the core holds no in-flight instructions.
func (c *Core) Quiesced() bool { return c.robLen == 0 && c.rob.Len() == 0 }

// Checkpoint implements checkpoint.Component at a quiescent point
// (empty ROB, no in-flight accesses), ending with the trace source's
// own walk (trace.Walk). A restore needs a core that has neither run
// nor been restored.
func (c *Core) Checkpoint(s *checkpoint.State) {
	if s.Restoring() && (c.clock != 0 || c.nextReqID != 0 || c.recValid || c.exhausted || c.robLen != 0) {
		s.Fail(checkpoint.Mismatchf("core %d: restore target is not freshly constructed", c.id))
		return
	}
	checkpoint.Plain(s, &c.stats)
	checkpoint.Plain(s, &c.rec)
	s.Bool(&c.recValid)
	checkpoint.Int(s, &c.nonMemLeft)
	s.Bool(&c.exhausted)
	checkpoint.Uint(s, &c.nextReqID)
	trace.Walk(s, c.src)
}
