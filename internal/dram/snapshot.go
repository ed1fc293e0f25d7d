package dram

import (
	"fmt"

	"care/internal/checkpoint"
)

// Checkpointable reports whether the model can snapshot now. The
// error wraps checkpoint.ErrNotCheckpointable.
func (d *DRAM) Checkpointable() error {
	if d.reads != 0 {
		return fmt.Errorf("%w: dram has %d reads in flight",
			checkpoint.ErrNotCheckpointable, d.reads)
	}
	return nil
}

// Checkpoint implements checkpoint.Component at a quiescent point: no
// reads in flight, and the posted writes are plain addresses carried
// over.
func (d *DRAM) Checkpoint(s *checkpoint.State) {
	checkpoint.Each(s, d.channels, func(s *checkpoint.State, ch *channel) {
		checkpoint.Each(s, ch.banks, func(s *checkpoint.State, b *bank) {
			checkpoint.Uint(s, &b.openRow)
			s.Bool(&b.hasOpen)
			checkpoint.Uint(s, &b.busyUntil)
		})
		checkpoint.Uint(s, &ch.busUntil)
	})
	wq := d.writeQ[d.wqHead:]
	checkpoint.Slice(s, &wq, checkpoint.Uints)
	if s.Restoring() {
		d.writeQ, d.wqHead = wq, 0
	}
	checkpoint.Uint(s, &d.minReady)
	checkpoint.Plain(s, &d.stats)
}
