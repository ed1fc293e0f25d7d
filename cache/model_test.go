package cache_test

import (
	"fmt"
	"testing"

	"care/cache"
)

// shadow is the reference model for the model checks: a map kept in
// step with the cache through OnEvict and Delete.
type shadow struct {
	m map[uint64]uint64
	// err is the first OnEvict that disagreed with the model.
	err error
}

func newShadow() *shadow { return &shadow{m: map[uint64]uint64{}} }

// onEvict is the cache's OnEvict hook: the victim must be live in the
// model, with the value last put for it.
func (sh *shadow) onEvict(k, v uint64) {
	if want, ok := sh.m[k]; (!ok || want != v) && sh.err == nil {
		sh.err = fmt.Errorf("OnEvict(%d, %d): model has %d, %v", k, v, want, ok)
	}
	delete(sh.m, k)
}

// modelOp is one step of a model check.
type modelOp struct {
	kind uint8 // 0 Get, 1 Put, 2 PutCost, 3 Delete
	key  uint64
	cost float64
}

// step applies o to c and to the model, then checks that they still
// agree: a hit returns the last value put, a Delete reports presence,
// Len matches, and CheckIntegrity holds. v is the value a Put stores.
func (sh *shadow) step(c mixedCache, o modelOp, v uint64) error {
	switch o.kind % 4 {
	case 0:
		got, ok := c.Get(o.key)
		want, wok := sh.m[o.key]
		if ok != wok || got != want {
			return fmt.Errorf("Get(%d) = %d, %v; model has %d, %v", o.key, got, ok, want, wok)
		}
	case 1:
		c.Put(o.key, v)
		sh.m[o.key] = v
	case 2:
		c.PutCost(o.key, v, o.cost)
		sh.m[o.key] = v
	case 3:
		_, wok := sh.m[o.key]
		delete(sh.m, o.key)
		if ok := c.Delete(o.key); ok != wok {
			return fmt.Errorf("Delete(%d) = %v; model has it: %v", o.key, ok, wok)
		}
	}
	if sh.err != nil {
		return sh.err
	}
	if c.Len() != len(sh.m) {
		return fmt.Errorf("Len %d; model holds %d", c.Len(), len(sh.m))
	}
	return c.CheckIntegrity()
}

// sameContents checks that Range visits exactly the model's entries.
func (sh *shadow) sameContents(c mixedCache) error {
	seen := 0
	var err error
	c.Range(func(k, v uint64) bool {
		seen++
		if want, ok := sh.m[k]; !ok || want != v {
			err = fmt.Errorf("Range yields %d=%d; model has %d, %v", k, v, want, ok)
			return false
		}
		return true
	})
	if err == nil && seen != len(sh.m) {
		err = fmt.Errorf("Range visited %d entries; model holds %d", seen, len(sh.m))
	}
	return err
}

// TestHashCollisions: with a low-entropy Options.Hash, distinct keys
// share a set and an identical hash, so only the key compare after
// the tag compare tells them apart. Every Get must return its own
// key's value, Put must update its own slot, Delete must remove only
// its key, and CheckIntegrity must hold after every op, on a Cache
// and on a 4-shard ShardedCache.
func TestHashCollisions(t *testing.T) {
	hashes := []struct {
		name string
		fn   func(uint64) uint64
	}{
		{"k&3", func(k uint64) uint64 { return k & 3 }},
		{"k&0x3f", func(k uint64) uint64 { return k & 0x3f }},
		// Spreads the 64 hash values over the shards (high bits) too.
		{"(k&0x3f)*phi", func(k uint64) uint64 { return (k & 0x3f) * 0x9e3779b97f4a7c15 }},
	}
	for _, hf := range hashes {
		runCollisions(t, hf.name, hf.fn, ^uint64(0))
	}
}

// tagCollide maps keys below 256 to distinct hashes that agree with
// every other key of equal k&7 in the set bits (low), the tag bits
// (32–39) and the shard bits (high): they differ only in bits 8–12.
func tagCollide(k uint64) uint64 { return k&7 | k>>3<<8 }

// TestTagCollisions: keys whose hashes differ, but not in the bits
// that pick the set, the shard or the 8-bit tag, pass every probe's
// tag filter, so only the key compare separates them. The same model
// checks as TestHashCollisions must hold.
func TestTagCollisions(t *testing.T) {
	runCollisions(t, "k&7|k>>3<<8", tagCollide, 7|0xff<<32|0xff<<56)
}

// runCollisions replays a seeded op stream over 256 keys hashed by
// hash through a shadow-checked Cache and 4-shard ShardedCache per
// policy. It fails if no two live keys ever agreed in the hash bits
// of mask, which would make the run vacuous.
func runCollisions(t *testing.T, name string, hash func(uint64) uint64, mask uint64) {
	for _, pol := range []string{"lru", "srrip", "care"} {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/%s/shards=%d", name, pol, shards), func(t *testing.T) {
				sh := newShadow()
				o := cache.Options[uint64, uint64]{
					Capacity: 64, Ways: 8, Policy: pol, Hash: hash, OnEvict: sh.onEvict,
				}
				var c mixedCache
				var err error
				if shards == 0 {
					c, err = cache.New(o)
				} else {
					o.Shards = shards
					c, err = cache.NewSharded(o)
				}
				if err != nil {
					t.Fatal(err)
				}
				rng := uint64(0x9e3779b97f4a7c15)
				maxShared := 0
				for i := uint64(0); i < 6000; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					op := modelOp{kind: uint8(rng >> 40), key: rng % 256, cost: float64(rng % 300)}
					if err := sh.step(c, op, i); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if i%256 == 0 {
						maxShared = max(maxShared, sharedHashes(c, func(k uint64) uint64 { return hash(k) & mask }))
					}
				}
				if err := sh.sameContents(c); err != nil {
					t.Fatal(err)
				}
				if maxShared < 2 {
					t.Fatal("no two live keys ever collided; the test is vacuous")
				}
			})
		}
	}
}

// sharedHashes returns the largest number of live keys with one hash.
func sharedHashes(c mixedCache, hash func(uint64) uint64) int {
	n := map[uint64]int{}
	most := 0
	c.Range(func(k, _ uint64) bool {
		h := hash(k)
		n[h]++
		most = max(most, n[h])
		return true
	})
	return most
}

// FuzzCacheModel drives a small Cache whose hash makes keys k and k+8
// collide against the shadow model. The first byte picks the policy
// and the collision: identical hashes (k&7), or distinct hashes that
// agree in the set and tag bits (tagCollide). Each later 3-byte group
// is one op: kind, key and cost.
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{0, 1, 3, 9, 1, 11, 50, 2, 19, 7, 0, 11, 0, 3, 3, 0, 0, 19, 0})
	f.Add([]byte{10, 2, 1, 200, 2, 9, 100, 2, 17, 3, 2, 25, 1, 2, 33, 90, 0, 1, 0, 3, 9, 0, 0, 9, 0})
	f.Add([]byte{7, 1, 3, 9, 1, 11, 50, 2, 19, 7, 0, 11, 0, 1, 27, 0, 3, 3, 0, 0, 19, 0, 0, 27, 0})
	pols := cache.Supported()
	hashes := []func(uint64) uint64{func(k uint64) uint64 { return k & 7 }, tagCollide}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sh := newShadow()
		c, err := cache.New(cache.Options[uint64, uint64]{
			Capacity: 16, Ways: 4, Policy: pols[int(data[0])%len(pols)],
			Hash:    hashes[int(data[0])/len(pols)%len(hashes)],
			OnEvict: sh.onEvict,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i+2 < len(data); i += 3 {
			op := modelOp{kind: data[i], key: uint64(data[i+1] % 64), cost: float64(data[i+2])}
			if err := sh.step(c, op, uint64(i)); err != nil {
				t.Fatalf("op at byte %d: %v", i, err)
			}
		}
		if err := sh.sameContents(c); err != nil {
			t.Fatal(err)
		}
	})
}
