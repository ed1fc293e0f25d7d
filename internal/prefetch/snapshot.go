package prefetch

import "care/internal/checkpoint"

// Checkpoint implements checkpoint.Component; NextLine has no dynamic
// state, so every attached prefetcher checkpoints the same way.
func (p *NextLine) Checkpoint(*checkpoint.State) {}

// Checkpoint implements checkpoint.Component.
func (p *IPStride) Checkpoint(s *checkpoint.State) {
	checkpoint.Each(s, p.table, func(s *checkpoint.State, e *ipEntry) {
		s.Bool(&e.valid)
		checkpoint.Uint(s, &e.tag)
		checkpoint.Uint(s, &e.lastBlock)
		checkpoint.Int(s, &e.stride)
		checkpoint.Int(s, &e.confidence)
	})
}

// Checkpoint implements checkpoint.Component.
func (p *Stream) Checkpoint(s *checkpoint.State) {
	checkpoint.Each(s, p.entries, func(s *checkpoint.State, e *streamEntry) {
		s.Bool(&e.valid)
		checkpoint.Uint(s, &e.lastBlock)
		checkpoint.Int(s, &e.direction)
		checkpoint.Int(s, &e.confirms)
		checkpoint.Uint(s, &e.lastUse)
	})
	checkpoint.Uint(s, &p.clock)
}
