package cache_test

import (
	"errors"
	"fmt"
	"testing"

	"care/cache"
	"care/internal/policy"
)

// TestBasicSemantics: Get/Put/Delete/Len behave like a map until the
// capacity forces evictions.
func TestBasicSemantics(t *testing.T) {
	c, err := cache.New(cache.Options[string, int]{Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("a", 10) // update in place
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("Get(a) after update = %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if !c.Delete("a") || c.Delete("a") {
		t.Fatal("Delete should succeed once then report absent")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	st := c.Stats()
	if st.Inserts != 2 || st.Updates != 1 || st.Deletes != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestCapacityBound: the cache never exceeds its (rounded) capacity
// and evicts via the policy, reporting evictions through OnEvict.
func TestCapacityBound(t *testing.T) {
	for _, pol := range cache.Supported() {
		t.Run(pol, func(t *testing.T) {
			var evicted int
			c, err := cache.New(cache.Options[uint64, uint64]{
				Capacity: 128,
				Ways:     8,
				Policy:   pol,
				OnEvict:  func(uint64, uint64) { evicted++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 4096
			for i := uint64(0); i < n; i++ {
				c.Put(i, i)
				if v, ok := c.Get(i); !ok || v != i {
					t.Fatalf("key %d absent immediately after Put", i)
				}
			}
			if c.Len() > 128 {
				t.Fatalf("Len %d exceeds capacity", c.Len())
			}
			st := c.Stats()
			if st.Evictions == 0 || int(st.Evictions) != evicted {
				t.Fatalf("evictions: stats %d, hook %d", st.Evictions, evicted)
			}
			if st.Evictions+uint64(c.Len()) != n {
				t.Fatalf("inserted %d != evicted %d + live %d", n, st.Evictions, c.Len())
			}
			if err := c.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPolicyCapabilityLockstep: construction succeeds for exactly the
// policies that report Portable; the rest fail with
// *ErrUnsupportedPolicy. This is the cross-layer lockstep
// between internal/policy and the library.
func TestPolicyCapabilityLockstep(t *testing.T) {
	for _, p := range policy.All() {
		_, err := cache.New(cache.Options[uint64, int]{Capacity: 256, Policy: string(p)})
		if p.Portable() && err != nil {
			t.Errorf("%q: portable but New failed: %v", p, err)
		}
		if !p.Portable() {
			var unsupported *cache.ErrUnsupportedPolicy
			if !errors.As(err, &unsupported) {
				t.Errorf("%q: want *ErrUnsupportedPolicy, got %v", p, err)
			} else if unsupported.Policy != string(p) {
				t.Errorf("%q: error names %q", p, unsupported.Policy)
			}
		}
		// Same contract on the sharded constructor.
		_, serr := cache.NewSharded(cache.Options[uint64, int]{Capacity: 256, Policy: string(p)})
		if (err == nil) != (serr == nil) {
			t.Errorf("%q: New err=%v but NewSharded err=%v", p, err, serr)
		}
	}
	// Unknown names are typed too.
	var unsupported *cache.ErrUnsupportedPolicy
	if _, err := cache.New(cache.Options[uint64, int]{Capacity: 8, Policy: "plru"}); !errors.As(err, &unsupported) {
		t.Fatalf("unknown policy: got %v", err)
	}
}

// TestOptionValidation: bad geometry and unhashable keys fail with
// useful errors.
func TestOptionValidation(t *testing.T) {
	if _, err := cache.New(cache.Options[uint64, int]{}); err == nil {
		t.Fatal("want error for zero capacity")
	}
	if _, err := cache.New(cache.Options[uint64, int]{Capacity: 8, Ways: 100}); err == nil {
		t.Fatal("want error for ways > 64")
	}
	type odd struct{ a, b int }
	var noHash *cache.ErrNoHash
	if _, err := cache.New(cache.Options[odd, int]{Capacity: 8}); !errors.As(err, &noHash) {
		t.Fatalf("struct key without Hash: got %v", err)
	}
	if _, err := cache.New(cache.Options[odd, int]{
		Capacity: 8,
		Hash:     func(o odd) uint64 { return uint64(o.a)<<32 | uint64(o.b) },
	}); err != nil {
		t.Fatalf("struct key with Hash: %v", err)
	}
}

// TestShardedBasics: the concurrent wrapper agrees with a map under a
// single goroutine, across shard counts including non-power-of-two
// requests (rounded up).
func TestShardedBasics(t *testing.T) {
	for _, shards := range []int{0, 1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, err := cache.NewSharded(cache.Options[string, string]{
				Capacity: 1024, Shards: shards, Policy: "care",
			})
			if err != nil {
				t.Fatal(err)
			}
			if shards > 0 && c.Shards() < shards {
				t.Fatalf("Shards() = %d, want >= %d", c.Shards(), shards)
			}
			for i := 0; i < 256; i++ {
				k := fmt.Sprintf("key-%d", i)
				c.Put(k, k)
			}
			for i := 0; i < 256; i++ {
				k := fmt.Sprintf("key-%d", i)
				if v, ok := c.Get(k); !ok || v != k {
					t.Fatalf("Get(%s) = %q, %v", k, v, ok)
				}
			}
			if c.Len() != 256 {
				t.Fatalf("Len = %d", c.Len())
			}
			seen := 0
			c.Range(func(string, string) bool { seen++; return true })
			if seen != 256 {
				t.Fatalf("Range visited %d", seen)
			}
			if err := c.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeterministicPlacement: equal seeds give identical placement
// and decisions across instances; the guarantee benchmarks and the
// parity test rely on.
func TestDeterministicPlacement(t *testing.T) {
	run := func() []uint64 {
		var evicted []uint64
		c, err := cache.New(cache.Options[uint64, int]{
			Capacity: 64, Policy: "ship++", Seed: 42,
			OnEvict: func(k uint64, _ int) { evicted = append(evicted, k) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10_000; i++ {
			k := uint64(i*2654435761) % 500
			if _, ok := c.Get(k); !ok {
				c.PutCost(k, int(k), float64(k%400))
			}
		}
		return evicted
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no evictions")
	}
	if len(a) != len(b) {
		t.Fatalf("eviction counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("eviction %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestGetHitAllocs: the steady-state hot paths must not allocate
// (the repo's zero-alloc hot-path discipline extends to the library):
// Get hits, Put-updates, Delete with the re-insert into the freed
// way, and PutCost inserts that evict from a full set, on both
// wrappers.
func TestGetHitAllocs(t *testing.T) {
	flat, err := cache.New(cache.Options[uint64, uint64]{Capacity: 512, Policy: "care"})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := cache.NewSharded(cache.Options[uint64, uint64]{Capacity: 512, Policy: "care", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name string
		c    mixedCache
	}{{"Cache", flat}, {"ShardedCache", sharded}} {
		c := w.c
		for i := uint64(0); i < 256; i++ {
			c.Put(i, i)
		}
		var k uint64
		gate := func(op string, f func()) {
			t.Helper()
			if avg := testing.AllocsPerRun(1000, f); avg != 0 {
				t.Errorf("%s %s allocates %.1f/op", w.name, op, avg)
			}
		}
		gate("Get hit", func() {
			if _, ok := c.Get(k % 256); !ok {
				t.Fatalf("%s: key %d missing", w.name, k%256)
			}
			k++
		})
		gate("Put update", func() { c.Put(k%256, k); k++ })
		gate("Delete", func() {
			if !c.Delete(k % 256) {
				t.Fatalf("%s: Delete(%d) missed", w.name, k%256)
			}
			c.Put(k%256, k)
			k++
		})
		for i := uint64(1000); i < 5000; i++ { // fill every set
			c.Put(i, i)
		}
		before := c.Stats()
		gate("PutCost evict", func() { c.PutCost(1<<20+k, k, float64(k%400)); k++ })
		if st := c.Stats(); st.Evictions-before.Evictions != st.Inserts-before.Inserts {
			t.Errorf("%s: %d PutCost inserts but %d evictions", w.name,
				st.Inserts-before.Inserts, st.Evictions-before.Evictions)
		}
	}
}
