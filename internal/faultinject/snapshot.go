package faultinject

import (
	"fmt"

	"care/internal/checkpoint"
	"care/internal/trace"
)

// Checkpoint implements checkpoint.Component.
func (in *Injector) Checkpoint(s *checkpoint.State) {
	checkpoint.Uint(s, &in.rng)
	checkpoint.Plain(s, &in.stats)
	s.Bool(&in.killed)
	checkpoint.Uint(s, &in.ckptsWritten)
}

// Checkpointable reports whether the shim can snapshot now. The error
// wraps checkpoint.ErrNotCheckpointable.
func (m *Memory) Checkpointable() error {
	if len(m.held) != 0 {
		return fmt.Errorf("%w: fault memory holds %d delayed responses",
			checkpoint.ErrNotCheckpointable, len(m.held))
	}
	return nil
}

// Checkpoint implements checkpoint.Component: the read counter driving
// every-Nth drop/delay selection. Held responses are completion
// routes and must be empty at a quiescent point.
func (m *Memory) Checkpoint(s *checkpoint.State) { checkpoint.Uint(s, &m.reads) }

// Checkpoint implements checkpoint.Component, then walks the source.
func (f *faultReader) Checkpoint(s *checkpoint.State) {
	checkpoint.Uint(s, &f.n)
	checkpoint.Uint(s, &f.rng)
	trace.Walk(s, f.src)
}
