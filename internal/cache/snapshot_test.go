package cache

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"care/internal/checkpoint"
	"care/internal/mem"
)

// TestBlockWalk holds walkBlocks to checkpoint.Plain[block]: for
// random blocks the typed walk stores the same bytes and restores the
// same blocks, and it walks every field of block, so a field added
// later cannot drop out of checkpoints unnoticed.
func TestBlockWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	blocks := make([]block, 256)
	for i := range blocks {
		blocks[i] = block{
			Tag:        rng.Uint64() >> rng.IntN(64),
			Core:       rng.IntN(1<<rng.IntN(20)) - 1<<rng.IntN(10),
			PC:         mem.Addr(rng.Uint64() >> rng.IntN(64)),
			Valid:      rng.IntN(2) == 0,
			Dirty:      rng.IntN(2) == 0,
			Prefetched: rng.IntN(2) == 0,
		}
	}
	typed, err := checkpoint.Encode(func(s *checkpoint.State) { walkBlocks(s, blocks) })
	if err != nil {
		t.Fatal(err)
	}
	plain, err := checkpoint.Encode(func(s *checkpoint.State) {
		for i := range blocks {
			checkpoint.Plain(s, &blocks[i])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(typed, plain) {
		t.Fatalf("walkBlocks stores %d bytes, checkpoint.Plain %d, and they differ", len(typed), len(plain))
	}
	got := make([]block, len(blocks))
	if err := checkpoint.Decode(typed, func(s *checkpoint.State) { walkBlocks(s, got) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, blocks) {
		t.Fatal("walkBlocks does not restore the blocks it saved")
	}

	// A zero field stores one byte, so a zero block's walk is one byte
	// per field walked.
	zero, err := checkpoint.Encode(func(s *checkpoint.State) { walkBlocks(s, make([]block, 1)) })
	if err != nil {
		t.Fatal(err)
	}
	if n := reflect.TypeOf(block{}).NumField(); len(zero) != n {
		t.Fatalf("walkBlocks walks %d fields of a block, which has %d", len(zero), n)
	}
}
