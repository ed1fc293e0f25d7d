package cache

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"care/internal/mem"
)

// scanMSHR is the reference for the MSHR's live order: it releases an
// entry by scanning the live list for its slot and swap-removing it.
type scanMSHR struct {
	live   []uint32
	blocks []uint64
}

func (r *scanMSHR) release(slot uint32) {
	for i, s := range r.live {
		if s == slot {
			last := len(r.live) - 1
			r.live[i], r.blocks[i] = r.live[last], r.blocks[last]
			r.live, r.blocks = r.live[:last], r.blocks[:last]
			return
		}
	}
}

// TestMSHRLiveOrderMatchesScan runs random allocate, merge and release
// sequences, with refused duplicate and full allocations mixed in, and
// checks after each step that the live order Entries gives, and every
// Lookup answer, are those of the scanning reference.
func TestMSHRLiveOrderMatchesScan(t *testing.T) {
	const universe = 24 // blocks drawn from; more than any capacity below
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		m := NewMSHR(capacity, 2)
		var ref scanMSHR
		for step := 0; step < 400; step++ {
			block := uint64(rng.Intn(universe))
			req := &mem.Request{Addr: mem.Addr(block << mem.BlockBits), Core: rng.Intn(2), Kind: mem.Load}
			switch op := rng.Intn(4); {
			case op <= 1: // allocate, or check the refusal
				e, err := m.Allocate(req)
				switch {
				case len(ref.live) == capacity:
					if !errors.Is(err, ErrMSHRFull) {
						t.Fatalf("seed %d step %d: allocation into a full file: err %v", seed, step, err)
					}
				case slices.Contains(ref.blocks, block):
					if !errors.Is(err, ErrMSHRDuplicate) {
						t.Fatalf("seed %d step %d: duplicate allocation of block %d: err %v", seed, step, block, err)
					}
				case err != nil:
					t.Fatalf("seed %d step %d: Allocate: %v", seed, step, err)
				default:
					ref.live = append(ref.live, e.Slot())
					ref.blocks = append(ref.blocks, block)
				}
			case op == 2 && len(ref.live) > 0: // merge into a live entry
				i := rng.Intn(len(ref.live))
				m.Merge(m.At(ref.live[i]), req)
			case len(ref.live) > 0: // release a live entry
				slot := ref.live[rng.Intn(len(ref.live))]
				m.Release(m.At(slot))
				ref.release(slot)
			}
			slab, live := m.Entries()
			if !slices.Equal(live, ref.live) {
				t.Fatalf("seed %d step %d: live order %v, scanning reference %v", seed, step, live, ref.live)
			}
			for b := uint64(0); b < universe; b++ {
				e := m.Lookup(b)
				i := slices.Index(ref.blocks, b)
				switch {
				case i < 0 && e != nil:
					t.Fatalf("seed %d step %d: Lookup(%d) found slot %d, reference has no entry", seed, step, b, e.Slot())
				case i >= 0 && (e == nil || e != &slab[ref.live[i]] || e.Block != b):
					t.Fatalf("seed %d step %d: Lookup(%d) = %v, reference has slot %d", seed, step, b, e, ref.live[i])
				}
			}
		}
	}
}

// TestIntegrityCatchesStaleLiveIndex corrupts the live-list index an
// MSHR entry stores; CheckIntegrity must report it.
func TestIntegrityCatchesStaleLiveIndex(t *testing.T) {
	c := New(Params{Name: "t", Sets: 16, Ways: 4, Latency: 1, MSHREntries: 4, Cores: 1}, &testLRU{})
	if n := c.SaturateMSHR(0); n != 4 {
		t.Fatalf("SaturateMSHR claimed %d entries, want 4", n)
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatalf("intact cache: %v", err)
	}
	slab, live := c.MSHRFile().Entries()
	slab[live[1]].pos = 3
	if err := c.CheckIntegrity(); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("CheckIntegrity with a stale live index = %v, want ErrIntegrity", err)
	}
}
