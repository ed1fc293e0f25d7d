package care

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"care/internal/cache"
	"care/internal/checkpoint"
	"care/internal/mem"
)

// TestRestoreRefusesOutOfRangeMetadata checks that a policy whose
// metadata holds one out-of-range value is ErrCorrupt. A block state
// byte is refused both ways: saving one fails, so a flipped EPV (the
// meta-flip fault, CorruptMetadata) never reaches a checkpoint, and a
// payload that holds one fails to restore. A training record or an SHT
// counter, which no fault reaches, is saved as it is and refused on
// restore.
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
		{"SHT RC 8", func(p *Policy) { p.sht[9].rc = rcMax + 1 }, checkpoint.ErrCorrupt},
		{"SHT PD 255", func(p *Policy) { p.sht[9].pd = 255 }, checkpoint.ErrCorrupt},
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
			bad := slices.IndexFunc(src.state, func(b uint8) bool { return !validState(b) })
			payload, err := checkpoint.Encode(src.Checkpoint)
			switch {
			case bad >= 0 && !errors.Is(err, checkpoint.ErrCorrupt):
				t.Fatalf("save with block state %#x: got %v, want ErrCorrupt", src.state[bad], err)
			case bad >= 0:
				payload = withState(t, src, bad)
			case err != nil:
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

// withState returns p's checkpoint payload holding block state byte i
// as it is, which saving refuses when it is out of range: it saves p
// with the byte set to 0 and to 1, and splices the byte in where the
// two payloads differ.
func withState(t *testing.T, p *Policy, i int) []byte {
	t.Helper()
	b := p.state[i]
	defer func() { p.state[i] = b }()
	p.state[i] = 0
	zero, err := checkpoint.Encode(p.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	p.state[i] = 1
	one, err := checkpoint.Encode(p.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for zero[at] == one[at] {
		at++
	}
	return slices.Concat(zero[:at], binary.AppendUvarint(nil, uint64(b)), zero[at+1:])
}
