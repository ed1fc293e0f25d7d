package replacement

import (
	"testing"

	"care/internal/cache"
)

// fillSet fills all ways of set 0 through the adapter with distinct
// blocks and returns the Access values used, in fill order.
func fillSet(a *Adapter, ways int) []Access {
	accs := make([]Access, ways)
	for w := 0; w < ways; w++ {
		accs[w] = Access{Sig: uint64(100 + w), Block: uint64(100 + w), Cost: 10}
		a.OnFill(0, w, accs[w])
	}
	return accs
}

// TestAdapterDrivesLRU: the adapter's synthetic block metadata must
// reproduce exact LRU behaviour.
func TestAdapterDrivesLRU(t *testing.T) {
	const ways = 4
	a := NewAdapter(NewLRU(), 2, ways)
	accs := fillSet(a, ways)

	// Touch everything except way 1; way 1 becomes the LRU victim.
	a.OnHit(0, 0, accs[0])
	a.OnHit(0, 2, accs[2])
	a.OnHit(0, 3, accs[3])
	if v := a.Victim(0, Access{Sig: 999, Block: 999}); v != 1 {
		t.Fatalf("victim = way %d, want 1 (least recently touched)", v)
	}

	// After evicting and refilling way 1, way 0 is oldest.
	a.OnEvict(0, 1, Access{Sig: 999, Block: 999})
	a.OnFill(0, 1, Access{Sig: 999, Block: 999})
	if v := a.Victim(0, Access{Sig: 998, Block: 998}); v != 0 {
		t.Fatalf("victim = way %d, want 0", v)
	}
}

// TestAdapterDeterministic: every portable policy, driven twice with
// the same Access sequence through fresh adapters, must pick
// identical victims — the property the care/cache parity test builds
// on. (Policies registered by internal/core/care are exercised by the
// cache package's own tests to avoid an import cycle here.)
func TestAdapterDeterministic(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			run := func() []int {
				ad, err := NewAdapterByName(name, 8, 4)
				if err != nil {
					t.Fatalf("NewAdapterByName: %v", err)
				}
				var victims []int
				rng := uint64(1)
				next := func() uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng
				}
				// occ and tags are the host's record of each way.
				occ := make([][]bool, 8)
				tags := make([][]uint64, 8)
				for i := range occ {
					occ[i] = make([]bool, 4)
					tags[i] = make([]uint64, 4)
				}
				for i := 0; i < 2000; i++ {
					h := next()
					set := int(h % 8)
					acc := Access{Sig: h >> 3, Block: h >> 3, Write: h%5 == 0, Cost: float64(h % 400)}
					way := -1
					for w, used := range occ[set] {
						if used && tags[set][w] == acc.Block {
							way = w
							break
						}
					}
					if way >= 0 {
						ad.OnHit(set, way, acc)
						continue
					}
					for w, used := range occ[set] {
						if !used {
							way = w
							break
						}
					}
					if way < 0 {
						way = ad.Victim(set, acc)
						victims = append(victims, set*4+way)
						ad.OnEvict(set, way, acc)
					}
					occ[set][way], tags[set][way] = true, acc.Block
					ad.OnFill(set, way, acc)
				}
				return victims
			}
			a, b := run(), run()
			if len(a) == 0 {
				t.Fatal("no evictions exercised")
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("victim %d diverged: %d vs %d", i, a[i], b[i])
				}
			}
		})
	}
}

// TestNewAdapterByNameUnknown: unregistered names fail cleanly.
func TestNewAdapterByNameUnknown(t *testing.T) {
	if _, err := NewAdapterByName("no-such-policy", 4, 4); err == nil {
		t.Fatal("want error for unknown policy")
	}
}

var _ cache.Policy = (*LRU)(nil)
