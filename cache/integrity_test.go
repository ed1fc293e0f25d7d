package cache

import (
	"strings"
	"testing"
)

// TestCheckIntegrityCatchesCorruption: each set-probe invariant that
// checkIntegrity guards is broken on purpose, once per case, and must
// be reported.
func TestCheckIntegrityCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(s *segment[uint64, uint64])
		want    string
	}{
		{"tag", func(s *segment[uint64, uint64]) {
			s.tags[0] ^= 1 // same set, same key, wrong tag
		}, "hashes to tag"},
		{"wrong set", func(s *segment[uint64, uint64]) {
			// Slot 0 of set 0 copied, tag and all, over slot 0 of set 1.
			s.slots[s.ways], s.tags[s.ways] = s.slots[0], s.tags[0]
		}, "belongs in set"},
		{"duplicate key", func(s *segment[uint64, uint64]) {
			s.slots[1], s.tags[1] = s.slots[0], s.tags[0]
		}, "also live"},
		{"live count", func(s *segment[uint64, uint64]) {
			s.live++
		}, "live count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Options[uint64, uint64]{Capacity: 64, Ways: 8})
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 1000; k++ {
				c.Put(k, k)
			}
			if c.seg.occ[0] != c.seg.waysMask || c.seg.occ[1] != c.seg.waysMask {
				t.Fatal("sets 0 and 1 are not full")
			}
			if err := c.CheckIntegrity(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			tc.corrupt(&c.seg)
			err = c.CheckIntegrity()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckIntegrity = %v; want an error containing %q", err, tc.want)
			}
		})
	}
}
