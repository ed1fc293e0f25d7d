package care

import (
	"testing"
	"unsafe"
)

// TestPolicyLayout pins the field order that keeps CARE's hits and
// misses on separate cache lines: every field OnHit reads ends within
// the first 64 bytes, no field a miss writes starts before byte 64, and
// a heap-allocated Policy starts on a line boundary (its size class is
// a multiple of 64), so those 64 bytes are one line.
func TestPolicyLayout(t *testing.T) {
	const line = 64
	var p Policy
	type field struct {
		name      string
		off, size uintptr
	}
	hitRead := []field{
		{"sht", unsafe.Offsetof(p.sht), unsafe.Sizeof(p.sht)},
		{"blocks", unsafe.Offsetof(p.blocks), unsafe.Sizeof(p.blocks)},
		{"ways", unsafe.Offsetof(p.ways), unsafe.Sizeof(p.ways)},
		{"sampled", unsafe.Offsetof(p.sampled), unsafe.Sizeof(p.sampled)},
	}
	for _, f := range hitRead {
		if end := f.off + f.size; end > line {
			t.Errorf("OnHit reads %s, which ends at byte %d, past the first line", f.name, end)
		}
	}
	missWritten := []field{
		{"rng", unsafe.Offsetof(p.rng), 0},
		{"pmcLow", unsafe.Offsetof(p.pmcLow), 0},
		{"pmcHigh", unsafe.Offsetof(p.pmcHigh), 0},
		{"tcm", unsafe.Offsetof(p.tcm), 0},
		{"missesInPeriod", unsafe.Offsetof(p.missesInPeriod), 0},
		{"period", unsafe.Offsetof(p.period), 0},
		{"epochs", unsafe.Offsetof(p.epochs), 0},
		{"stats", unsafe.Offsetof(p.stats), 0},
	}
	for _, f := range missWritten {
		if f.off < line {
			t.Errorf("misses write %s, which starts at byte %d, inside OnHit's line", f.name, f.off)
		}
	}
	for i := 0; i < 16; i++ {
		if q := New(Config{}); uintptr(unsafe.Pointer(q))%line != 0 {
			t.Fatalf("a %d-byte Policy was allocated at %p, not on a %d-byte line", unsafe.Sizeof(p), q, line)
		}
	}
}
