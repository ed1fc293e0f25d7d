package cache_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"care/cache"
)

// TestShardedStress hammers a ShardedCache from GOMAXPROCS goroutines
// (run under -race in CI). Each goroutine owns a disjoint key range
// it fills, reads, churns, and finally deletes — so after the join,
// every owned key must be absent (no lost updates on a terminal
// Delete) — while all goroutines also pound a shared hot range for
// real cross-shard contention. Invariants checked at the end: owned
// keys gone, Len consistent with Range and with the conservation
// counters, per-shard integrity (slot sigs ↔ set probe ↔ occupancy ↔
// policy blocks).
func TestShardedStress(t *testing.T) {
	for _, pol := range []string{"lru", "ship++", "care"} {
		t.Run(pol, func(t *testing.T) {
			c, err := cache.NewSharded(cache.Options[uint64, uint64]{
				Capacity: 8192, Ways: 8, Policy: pol,
			})
			if err != nil {
				t.Fatal(err)
			}

			workers := runtime.GOMAXPROCS(0)
			const (
				perWorker = 4096
				sharedLo  = uint64(1) << 32 // shared hot range, never deleted
				sharedN   = 512
				rounds    = 30_000
			)
			var wrongValue atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := uint64(w+1) * 1_000_000 // disjoint per-worker range
					rng := uint64(w)*2654435761 + 1
					next := func() uint64 {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						return rng
					}
					for i := 0; i < rounds; i++ {
						r := next()
						switch r % 8 {
						case 0, 1, 2: // shared hot reads (read-through)
							k := sharedLo + r%sharedN
							if v, ok := c.Get(k); ok && v != k*7 {
								wrongValue.Add(1)
							} else if !ok {
								c.PutCost(k, k*7, float64(r%400))
							}
						case 3, 4: // owned writes
							k := base + r%perWorker
							c.PutCost(k, k*7, float64(r%400))
						case 5, 6: // owned reads: value must never be torn
							k := base + r%perWorker
							if v, ok := c.Get(k); ok && v != k*7 {
								wrongValue.Add(1)
							}
						case 7: // owned deletes mid-flight
							c.Delete(base + r%perWorker)
						}
					}
					// Terminal delete of the whole owned range.
					for k := base; k < base+perWorker; k++ {
						c.Delete(k)
					}
				}(w)
			}
			wg.Wait()

			if n := wrongValue.Load(); n != 0 {
				t.Fatalf("%d reads observed a wrong/torn value", n)
			}
			// No lost updates on terminal Delete: every owned key gone.
			for w := 0; w < workers; w++ {
				base := uint64(w+1) * 1_000_000
				for k := base; k < base+perWorker; k += 97 {
					if _, ok := c.Get(k); ok {
						t.Fatalf("worker %d key %d survived its terminal Delete", w, k)
					}
				}
			}
			// Only shared-range keys may remain.
			live := 0
			c.Range(func(k, v uint64) bool {
				live++
				if k < sharedLo || k >= sharedLo+sharedN {
					t.Errorf("unexpected survivor key %d", k)
					return false
				}
				if v != k*7 {
					t.Errorf("survivor key %d has wrong value %d", k, v)
					return false
				}
				return true
			})
			if live != c.Len() {
				t.Fatalf("Range saw %d entries, Len reports %d", live, c.Len())
			}
			st := c.Stats()
			if got := st.Inserts - st.Evictions - st.Deletes; got != uint64(c.Len()) {
				t.Fatalf("conservation: inserts %d - evictions %d - deletes %d = %d, live %d",
					st.Inserts, st.Evictions, st.Deletes, got, c.Len())
			}
			if err := c.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedStatsSnapshotConsistent reads Stats and Len continuously
// WHILE writers are still running and asserts the cross-shard
// conservation identities on every observation: get-through traffic
// means every Get is either a hit or a miss (Hits+Misses never exceeds
// issued Gets, and the two never tear apart), and live entries always
// equal Inserts − Evictions − Deletes. With the old one-shard-at-a-time
// summation both identities failed transiently: a Get racing between
// an already-summed and a not-yet-summed shard could be double-counted
// or missed, so monitoring scrapes saw Hits+Misses != Gets.
func TestShardedStatsSnapshotConsistent(t *testing.T) {
	c, err := cache.NewSharded(cache.Options[uint64, uint64]{Capacity: 4096, Policy: "care", Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	var issuedGets atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*0x9E3779B97F4A7C15 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := rng % 16384
				switch rng % 4 {
				case 0:
					c.Delete(k)
				default:
					// issuedGets counts BEFORE the Get so a snapshot can
					// never see more Hits+Misses than issued Gets.
					issuedGets.Add(1)
					if _, ok := c.Get(k); !ok {
						c.Put(k, k*3)
					}
				}
			}
		}(uint64(w + 1))
	}
	for i := 0; i < 2_000; i++ {
		st := c.Stats()
		if got := st.Hits + st.Misses; got > issuedGets.Load() {
			t.Errorf("observation %d: Hits+Misses = %d exceeds issued Gets (torn sum)", i, got)
			break
		}
		st = c.Stats()
		n := c.Len()
		st2 := c.Stats()
		// Len sits between two Stats snapshots; conservation must hold
		// against the interval they bound.
		lo := int64(st.Inserts) - int64(st2.Evictions) - int64(st2.Deletes)
		hi := int64(st2.Inserts) - int64(st.Evictions) - int64(st.Deletes)
		if int64(n) < lo || int64(n) > hi {
			t.Errorf("observation %d: Len %d outside conservation interval [%d, %d]", i, n, lo, hi)
			break
		}
	}
	close(stop)
	wg.Wait()
	st := c.Stats()
	if got := st.Hits + st.Misses; got != issuedGets.Load() {
		t.Fatalf("quiescent: Hits+Misses = %d, issued Gets = %d", got, issuedGets.Load())
	}
	if got := int64(st.Inserts) - int64(st.Evictions) - int64(st.Deletes); got != int64(c.Len()) {
		t.Fatalf("quiescent conservation: %d live by counters, Len %d", got, c.Len())
	}
}

// TestShardedConcurrentMixed runs fully overlapping keys from many
// goroutines — every key contended — purely to give the race detector
// surface area on the lock paths (values are all derived from keys,
// so correctness is still checkable).
func TestShardedConcurrentMixed(t *testing.T) {
	c, err := cache.NewSharded(cache.Options[uint64, uint64]{Capacity: 2048, Policy: "care", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2*runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*0x9E3779B97F4A7C15 + 1
			for i := 0; i < 20_000; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := rng % 4096
				switch rng % 4 {
				case 0:
					c.Put(k, k*13)
				case 1:
					c.Delete(k)
				default:
					if v, ok := c.Get(k); ok && v != k*13 {
						t.Errorf("key %d: got %d", k, v)
						return
					}
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
