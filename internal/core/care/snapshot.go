package care

import (
	"fmt"

	"care/internal/checkpoint"
)

// Checkpoint implements checkpoint.Component on a freshly Init'd
// policy of identical geometry and configuration. It walks the SHT,
// the per-block metadata, the tie-break RNG, and the full DTRM
// threshold/epoch machinery (§V-F); configuration (sampling stride,
// period length, cost signal) is rebuilt by New/NewMCARE + Init.
func (p *Policy) Checkpoint(s *checkpoint.State) {
	checkpoint.Table(s, p.sht, walkSHT)
	checkpoint.Grid(s, p.blocks, p.ways, p.walkMeta)
	checkpoint.Uint(s, &p.rng)
	s.Float64(&p.pmcLow)
	s.Float64(&p.pmcHigh)
	checkpoint.Uint(s, &p.tcm)
	checkpoint.Uint(s, &p.missesInPeriod)
	checkpoint.Uint(s, &p.epochs)
	checkpoint.Plain(s, &p.stats)
}

// walkSHT walks the SHT's entries, each counter as checkpoint.Uint
// does. Saving appends the whole table in one loop.
func walkSHT(s *checkpoint.State, sht []shtEntry) {
	if s.Restoring() {
		for i := range sht {
			checkpoint.Uint(s, &sht[i].rc)
			checkpoint.Uint(s, &sht[i].pd)
		}
		return
	}
	s.Save(func(buf []byte) []byte {
		for _, e := range sht {
			buf = checkpoint.AppendUint(buf, e.rc)
			buf = checkpoint.AppendUint(buf, e.pd)
		}
		return buf
	})
}

// walkMeta walks one set's block metadata. A signature or EPV that
// would index outside the SHT or the EPV counters is corrupt.
func (p *Policy) walkMeta(s *checkpoint.State, row []blockMeta) {
	for i := range row {
		m := &row[i]
		checkpoint.Uint(s, &m.epv)
		checkpoint.Uint(s, &m.sig)
		s.Bool(&m.reused)
		checkpoint.Uint(s, &m.pmcs)
		s.Bool(&m.prefetched)
		s.Bool(&m.writeback)
		s.Bool(&m.valid)
		if s.Restoring() && (int(m.sig) >= len(p.sht) || int(m.epv) >= len(p.stats.InsertEPV)) {
			s.Fail(fmt.Errorf("%w: %s: block signature %d or EPV %d out of range",
				checkpoint.ErrCorrupt, p.name, m.sig, m.epv))
		}
	}
}
