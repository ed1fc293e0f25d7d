package care

import (
	"fmt"

	"care/internal/checkpoint"
)

// Checkpoint implements checkpoint.Component on a freshly Init'd
// policy of identical geometry and configuration. It walks the SHT,
// every block's state byte, the sampled sets' training records, the
// tie-break RNG, and the full DTRM threshold/epoch machinery (§V-F);
// configuration (sampling stride, period length, cost signal) is
// rebuilt by New/NewMCARE + Init.
func (p *Policy) Checkpoint(s *checkpoint.State) {
	checkpoint.Table(s, p.sht[:], walkSHT)
	checkpoint.Grid(s, p.state, int(p.ways), p.walkState)
	checkpoint.Grid(s, p.train, int(p.ways), walkTrain)
	checkpoint.Uint(s, &p.rng)
	s.Float64(&p.pmcLow)
	s.Float64(&p.pmcHigh)
	checkpoint.Uint(s, &p.tcm)
	checkpoint.Uint(s, &p.missesInPeriod)
	checkpoint.Uint(s, &p.epochs)
	checkpoint.Plain(s, &p.stats)
}

// walkSHT walks the SHT's entries, each counter as checkpoint.Uint
// does. Saving appends the whole table in one loop. A restored counter
// above its 3-bit ceiling is corrupt; no fault reaches the SHT, so a
// save never holds one.
func walkSHT(s *checkpoint.State, sht []shtEntry) {
	if s.Restoring() {
		for i := range sht {
			e := &sht[i]
			checkpoint.Uint(s, &e.rc)
			checkpoint.Uint(s, &e.pd)
			if s.Err() == nil && (e.rc > rcMax || e.pd > pdMax) {
				s.Fail(fmt.Errorf("%w: SHT entry %#x out of range (rc=%d pd=%d)", checkpoint.ErrCorrupt, i, e.rc, e.pd))
				return
			}
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

// walkState walks one set's state bytes. A byte with bits outside
// the EPV and the prefetched bit, or an EPV above its 2-bit ceiling,
// is corrupt, whether it is restored or saved: a policy whose metadata
// was flipped refuses to checkpoint, so no file holds state that a
// restore would refuse.
func (p *Policy) walkState(s *checkpoint.State, row []uint8) {
	checkpoint.Uints(s, row)
	if s.Err() != nil {
		return
	}
	for _, b := range row {
		if !validState(b) {
			s.Fail(fmt.Errorf("%w: %s: block state %#x out of range", checkpoint.ErrCorrupt, p.name, b))
			return
		}
	}
}

// walkTrain walks one sampled set's training records. A signature
// that would index outside the SHT, or a PMCS above its 2-bit
// ceiling, is corrupt.
func walkTrain(s *checkpoint.State, row []trainRec) {
	for i := range row {
		t := &row[i]
		checkpoint.Index(s, &t.sig, shtEntries, "block signature")
		s.Bool(&t.reused)
		checkpoint.Index(s, &t.pmcs, pmcsMax+1, "block PMCS")
		s.Bool(&t.writeback)
		s.Bool(&t.valid)
	}
}
