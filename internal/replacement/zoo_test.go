package replacement_test

import (
	"math/rand"
	"testing"

	"care/internal/cache"
	careplc "care/internal/core/care"
	"care/internal/mem"
	"care/internal/policy"
	"care/internal/replacement"
)

// These tests run every policy of the zoo, CARE and M-CARE included,
// so they build them through internal/policy, which imports this
// package: hence an external test package.

// Functional smoke test: every policy must survive a mixed random
// workload through the real cache without panicking and with sane
// stats.
func TestAllPoliciesSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var accs []cache.AccessInfo
	for i := 0; i < 3000; i++ {
		kind := mem.Load
		switch rng.Intn(10) {
		case 0:
			kind = mem.Store
		case 1:
			kind = mem.Prefetch
		case 2:
			kind = mem.Writeback
		}
		accs = append(accs, cache.AccessInfo{
			Addr: mem.Addr(uint64(rng.Intn(512)) << mem.BlockBits),
			PC:   mem.Addr(0x400000 + uint64(rng.Intn(32))*4),
			Core: rng.Intn(4),
			Kind: kind,
		})
	}
	for _, name := range policy.All() {
		t.Run(string(name), func(t *testing.T) {
			p, err := policy.New(name, 4, careplc.Config{})
			if err != nil {
				t.Fatal(err)
			}
			c := cache.New(cache.Params{Name: "smoke", Sets: 32, Ways: 4, Latency: 1, MSHREntries: 16, Cores: 4}, p)
			cycle := uint64(0)
			for _, a := range accs {
				c.Access(&mem.Request{Addr: a.Addr, PC: a.PC, Core: a.Core, Kind: a.Kind}, cycle)
				c.Tick(cycle)
				c.Tick(cycle + 1)
				cycle += 2
			}
			s := c.Stats()
			if s.DemandAccesses == 0 {
				t.Fatal("no demand accesses recorded")
			}
			if s.DemandHits+s.DemandMisses != s.DemandAccesses {
				t.Fatalf("hits+misses != accesses: %+v", s)
			}
		})
	}
}

// keyAccess is the AccessInfo the care/cache segment hands its policy
// for an operation on the key hashing to h: the hash is both the PC
// and the block, a write is a store, and the miss cost goes on both
// cost channels.
func keyAccess(h uint64, write bool, cost float64) cache.AccessInfo {
	kind := mem.Load
	if write {
		kind = mem.Store
	}
	return cache.AccessInfo{
		PC:      mem.Addr(h),
		Addr:    mem.Addr(h << mem.BlockBits),
		Kind:    kind,
		PMC:     cost,
		MLPCost: cost,
	}
}

// TestAdapterDrivesLRU: LRU driven by key traffic the way the
// care/cache segment adapts it, with the host alone tracking which
// ways are live, reproduces exact LRU behaviour.
func TestAdapterDrivesLRU(t *testing.T) {
	const ways = 4
	p := replacement.NewLRU()
	p.Init(2, ways)
	accs := make([]cache.AccessInfo, ways)
	for w := range accs {
		accs[w] = keyAccess(uint64(100+w), true, 10)
		p.OnFill(0, w, accs[w])
	}

	// Touch everything except way 1; way 1 becomes the LRU victim.
	p.OnHit(0, 0, accs[0])
	p.OnHit(0, 2, accs[2])
	p.OnHit(0, 3, accs[3])
	if v := p.Victim(0, keyAccess(999, true, 0)); v != 1 {
		t.Fatalf("victim = way %d, want 1 (least recently touched)", v)
	}

	// After evicting and refilling way 1, way 0 is oldest.
	p.OnEvict(0, 1, keyAccess(999, true, 0))
	p.OnFill(0, 1, keyAccess(999, true, 0))
	if v := p.Victim(0, keyAccess(998, true, 0)); v != 0 {
		t.Fatalf("victim = way %d, want 0", v)
	}
}

// TestAdapterDeterministic: every policy, built the way care/cache
// builds a segment's (one core, default CARE tuning) and driven twice
// by the same key traffic, must pick identical victims — the property
// the care/cache parity test builds on.
func TestAdapterDeterministic(t *testing.T) {
	const sets, ways = 8, 4
	for _, name := range policy.All() {
		t.Run(string(name), func(t *testing.T) {
			run := func() []int {
				p, err := policy.New(name, 1, careplc.Config{})
				if err != nil {
					t.Fatal(err)
				}
				p.Init(sets, ways)
				var victims []int
				rng := uint64(1)
				next := func() uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng
				}
				// occ and tags are the host's record of each way.
				var occ [sets][ways]bool
				var tags [sets][ways]uint64
				for i := 0; i < 2000; i++ {
					h := next()
					set := int(h % sets)
					key := h >> 3
					acc := keyAccess(key, h%5 == 0, float64(h%400))
					way := -1
					for w, used := range occ[set] {
						if used && tags[set][w] == key {
							way = w
							break
						}
					}
					if way >= 0 {
						p.OnHit(set, way, acc)
						continue
					}
					for w, used := range occ[set] {
						if !used {
							way = w
							break
						}
					}
					if way < 0 {
						way = p.Victim(set, acc)
						victims = append(victims, set*ways+way)
						p.OnEvict(set, way, acc)
					}
					occ[set][way], tags[set][way] = true, key
					p.OnFill(set, way, acc)
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
