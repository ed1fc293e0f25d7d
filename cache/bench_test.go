package cache_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"care/cache"
)

// benchWrappers runs fn as one sub-benchmark per wrapper, handing
// each call a new CARE cache of the given capacity.
func benchWrappers(b *testing.B, capacity int, fn func(b *testing.B, c mixedCache)) {
	o := cache.Options[uint64, uint64]{Capacity: capacity, Policy: "care", Shards: 8}
	b.Run("Cache", func(b *testing.B) {
		c, err := cache.New(o)
		if err != nil {
			b.Fatal(err)
		}
		fn(b, c)
	})
	b.Run("ShardedCache", func(b *testing.B) {
		c, err := cache.NewSharded(o)
		if err != nil {
			b.Fatal(err)
		}
		fn(b, c)
	})
}

// BenchmarkGetHit: Gets of resident keys, in a shuffled order, from a
// full 2^16-entry cache, so every op is a hit and most miss the CPU
// caches as service traffic would.
func BenchmarkGetHit(b *testing.B) {
	const n = 1 << 16
	benchWrappers(b, n, func(b *testing.B, c mixedCache) {
		for k := uint64(0); k < 2*n; k++ {
			c.Put(k, k)
		}
		var keys []uint64
		c.Range(func(k, _ uint64) bool { keys = append(keys, k); return true })
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get(keys[i%len(keys)]); !ok {
				b.Fatal("miss")
			}
		}
	})
}

// BenchmarkPutEvict: PutCosts of fresh keys into a full 2^12-entry
// cache, so every op is an insert that makes the policy pick and
// evict a victim.
func BenchmarkPutEvict(b *testing.B) {
	const n = 1 << 12
	benchWrappers(b, n, func(b *testing.B, c mixedCache) {
		for k := uint64(0); k < 4*n; k++ {
			c.Put(k, k)
		}
		before := c.Stats().Evictions
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(1<<32 + i)
			c.PutCost(k, k, float64(i%400))
		}
		b.StopTimer()
		if got := c.Stats().Evictions - before; got != uint64(b.N) {
			b.Fatalf("%d evictions for %d fresh inserts", got, b.N)
		}
	})
}

// BenchmarkGetHitParallel: Gets of resident keys from every
// RunParallel goroutine into one 8-shard CARE ShardedCache of 2^16
// entries, in a zipf-skewed order (s = 1.1), so the goroutines pile
// onto the shards that hold the head keys. Every op is a hit; ns/op
// counts the time goroutines wait on a contended shard lock.
func BenchmarkGetHitParallel(b *testing.B) {
	const n = 1 << 16
	c, err := cache.NewSharded(cache.Options[uint64, uint64]{Capacity: n, Policy: "care", Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 2*n; k++ {
		c.Put(k, k)
	}
	var keys []uint64
	c.Range(func(k, _ uint64) bool { keys = append(keys, k); return true })
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	stream := make([]uint64, 1<<16)
	for i := range stream {
		stream[i] = keys[z.Uint64()]
	}
	var start, misses atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := start.Add(1 << 12)
		var miss uint64
		for pb.Next() {
			if _, ok := c.Get(stream[i&(1<<16-1)]); !ok {
				miss++
			}
			i++
		}
		misses.Add(miss)
	})
	b.StopTimer()
	if m := misses.Load(); m != 0 {
		b.Fatalf("%d misses on resident keys", m)
	}
}

// BenchmarkPutCostParallel: PutCosts of fresh keys from every
// RunParallel goroutine into one full 8-shard CARE ShardedCache of
// 2^12 entries, so every op is an insert that evicts under a shard
// lock while other goroutines do the same: the miss path of
// read-through traffic under a scan flood. Each goroutine draws its
// keys from a range of its own, so no two ops insert the same key.
func BenchmarkPutCostParallel(b *testing.B) {
	const n = 1 << 12
	c, err := cache.NewSharded(cache.Options[uint64, uint64]{Capacity: n, Policy: "care", Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	for k := uint64(0); k < 4*n; k++ {
		c.Put(k, k)
	}
	before := c.Stats().Evictions
	var goroutines atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := goroutines.Add(1) << 40
		for i := 0; pb.Next(); i++ {
			c.PutCost(k, k, float64(i%400))
			k++
		}
	})
	b.StopTimer()
	if got := c.Stats().Evictions - before; got != uint64(b.N) {
		b.Fatalf("%d evictions for %d fresh inserts", got, b.N)
	}
}
