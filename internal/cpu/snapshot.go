package cpu

import (
	"context"
	"errors"
	"fmt"
	"io"

	"care/internal/checkpoint"
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

// LimitReplay bounds the record count a restore of this core may
// replay, and sets the context that cancels the replay. Synthetic
// traces never end, so a forged count would replay for hours;
// Checkpoint refuses a count above the limit with ErrCorrupt before it
// reads any record. A count within the limit can still take minutes,
// so the replay stops with ctx's error once ctx is done. A core whose
// limit was never set restores no record at all.
func (c *Core) LimitReplay(ctx context.Context, records uint64) {
	c.replayCtx, c.replayLimit = ctx, records
}

// replayPoll is the number of records reposition replays between looks
// at its context: about a tenth of a second of synthetic trace.
const replayPoll = 1 << 21

// Checkpoint implements checkpoint.Component at a quiescent point
// (empty ROB, no in-flight accesses). The trace position is the number
// of records consumed: a restore replays that many records, at most
// the LimitReplay bound, through the core's freshly constructed,
// unread copy of the same trace.
func (c *Core) Checkpoint(s *checkpoint.State) {
	if s.Restoring() && (c.recsRead != 0 || c.robLen != 0) {
		s.Fail(checkpoint.Mismatchf("core %d: restore target is not freshly constructed", c.id))
		return
	}
	checkpoint.Plain(s, &c.stats)
	checkpoint.Plain(s, &c.rec)
	s.Bool(&c.recValid)
	checkpoint.Int(s, &c.nonMemLeft)
	s.Bool(&c.exhausted)
	checkpoint.Uint(s, &c.nextReqID)
	recs := c.recsRead
	checkpoint.Uint(s, &recs)
	if s.Restoring() && s.Err() == nil {
		if recs > c.replayLimit {
			s.Fail(fmt.Errorf("%w: core %d: checkpoint consumed %d trace records, the run can have read at most %d",
				checkpoint.ErrCorrupt, c.id, recs, c.replayLimit))
			return
		}
		s.Fail(c.reposition(recs))
	}
}

// reposition consumes n records from the trace source, returning the
// replay context's error if it is done first.
func (c *Core) reposition(n uint64) error {
	for i := uint64(0); i < n; i++ {
		if i%replayPoll == 0 {
			if err := c.replayCtx.Err(); err != nil {
				return err
			}
		}
		if _, err := c.src.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return checkpoint.Mismatchf(
					"core %d: trace ended after %d records, checkpoint consumed %d — different trace?",
					c.id, i, n)
			}
			return fmt.Errorf("%w: core %d: repositioning trace: %v",
				checkpoint.ErrNotCheckpointable, c.id, err)
		}
	}
	c.recsRead = n
	return nil
}
