package care

import (
	"errors"
	"reflect"
	"testing"

	"care/internal/cache"
	"care/internal/checkpoint"
	"care/internal/mem"
)

// TestRestoreRefusesOutOfRangeMetadata saves a policy whose metadata
// holds one out-of-range value and checks that restoring it is
// ErrCorrupt. Saving stores the metadata as it is, so a flipped EPV
// (the meta-flip fault) is written and then refused on restore.
func TestRestoreRefusesOutOfRangeMetadata(t *testing.T) {
	const sets, ways = 64, 4 // Config{SampledSets: 16}: every 4th set trains
	cases := []struct {
		name string
		mut  func(p *Policy)
		want error
	}{
		{"valid", func(p *Policy) {}, nil},
		{"prefetched EPV 3", func(p *Policy) { p.state[5] = prefetchedBit | epvMax }, nil},
		{"stray bit", func(p *Policy) { p.state[5] = 1 << 4 }, checkpoint.ErrCorrupt},
		{"stray high bit", func(p *Policy) { p.state[5] = 1<<7 | 1 }, checkpoint.ErrCorrupt},
		{"EPV 4", func(p *Policy) { p.state[5] = 4 }, checkpoint.ErrCorrupt},
		{"flipped EPV", func(p *Policy) { p.CorruptMetadata(1, 1) }, checkpoint.ErrCorrupt},
		{"prefetched EPV 7", func(p *Policy) { p.state[5] = prefetchedBit | 7 }, checkpoint.ErrCorrupt},
		{"PMCS 4", func(p *Policy) { p.train[6].pmcs = pmcsMax + 1 }, checkpoint.ErrCorrupt},
		{"PMCS 255", func(p *Policy) { p.train[6].pmcs = 255 }, checkpoint.ErrCorrupt},
		{"signature at SHT size", func(p *Policy) { p.train[6].sig = shtEntries }, checkpoint.ErrCorrupt},
		{"signature 0xffff", func(p *Policy) { p.train[6].sig = 0xffff }, checkpoint.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := New(Config{SampledSets: 16, Seed: 1})
			src.Init(sets, ways)
			for i := 0; i < sets*ways; i++ {
				kind := mem.Load
				if i%3 == 0 {
					kind = mem.Prefetch
				}
				src.OnFill(i/ways, i%ways, cache.AccessInfo{PC: mem.Addr(i), Kind: kind, PMC: float64(i % 500)})
			}
			tc.mut(src)
			payload, err := checkpoint.Encode(src.Checkpoint)
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			dst := New(Config{SampledSets: 16, Seed: 1})
			dst.Init(sets, ways)
			err = checkpoint.Decode(payload, dst.Checkpoint)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				if !reflect.DeepEqual(dst.state, src.state) || !reflect.DeepEqual(dst.train, src.train) || *dst.sht != *src.sht {
					t.Fatal("restored metadata differs from the saved policy's")
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("restore: got %v, want %v", err, tc.want)
			}
		})
	}
}
