package cache

import (
	"math/bits"
	"sync"
)

// shard is one lock + segment pair, 192 bytes: the mutex and the
// segment's counters (see segment) fill the first 64-byte line, the
// read-only geometry and slice headers the next two. 192 bytes is one
// of Go's size classes, and the runtime places objects of a class at
// multiples of its size within a page-aligned span, so every shard
// starts on a line boundary and no two shards share a line. Keep the
// size a multiple of 64 (TestShardLayout).
type shard[K comparable, V any] struct {
	mu  sync.Mutex
	seg segment[K, V]
}

// ShardedCache is the concurrent wrapper: keys are hashed across a
// power-of-two number of segments, each guarded by its own mutex, so
// goroutines touching different shards never contend. Each shard runs
// the same segment code as the single-threaded Cache — with one
// shard, decisions are byte-identical to Cache (enforced by tests).
//
// Every method is safe for concurrent use. Len and Stats hold every
// shard lock at once and so return a consistent global snapshot:
// cross-counter identities (Hits+Misses = total Gets, Inserts −
// Evictions − Deletes = Len) hold even while writers run. Range still
// locks shards one at a time — it is consistent per shard only.
type ShardedCache[K comparable, V any] struct {
	hash        func(K) uint64
	shards      []*shard[K, V]
	shardShift  uint
	defaultCost float64
}

// NewSharded builds a concurrent sharded cache. Options.Shards picks
// the shard count (0 = a power of two >= 4×GOMAXPROCS); capacity and
// sets are split evenly across shards.
func NewSharded[K comparable, V any](o Options[K, V]) (*ShardedCache[K, V], error) {
	cfg, err := resolve(o, true)
	if err != nil {
		return nil, err
	}
	s := &ShardedCache[K, V]{
		hash:        cfg.hash,
		shards:      make([]*shard[K, V], cfg.shards),
		shardShift:  64 - uint(bits.Len(uint(cfg.shards-1))),
		defaultCost: cfg.defCost,
	}
	for i := range s.shards {
		pol, err := cfg.newPolicy()
		if err != nil {
			return nil, err
		}
		sh := &shard[K, V]{}
		sh.seg.init(cfg.sets, cfg.ways, cfg.hash, pol, cfg.onEvict)
		s.shards[i] = sh
	}
	return s, nil
}

// shardFor routes a hash to its shard by the high bits (the segment
// uses the low bits for its set index, so the two stay independent).
// With one shard the shift is 64, which Go defines to yield 0.
func (s *ShardedCache[K, V]) shardFor(h uint64) *shard[K, V] {
	return s.shards[h>>s.shardShift]
}

// Get returns the value cached for k.
func (s *ShardedCache[K, V]) Get(k K) (V, bool) {
	h := s.hash(k)
	sh := s.shardFor(h)
	sh.mu.Lock()
	v, ok := sh.seg.get(k, h)
	sh.mu.Unlock()
	return v, ok
}

// Put inserts or updates k with the configured DefaultCost.
func (s *ShardedCache[K, V]) Put(k K, v V) {
	h := s.hash(k)
	sh := s.shardFor(h)
	sh.mu.Lock()
	sh.seg.put(k, h, v, s.defaultCost)
	sh.mu.Unlock()
}

// PutCost inserts or updates k, attributing cost to the miss that
// produced the value (see Cache.PutCost).
func (s *ShardedCache[K, V]) PutCost(k K, v V, cost float64) {
	h := s.hash(k)
	sh := s.shardFor(h)
	sh.mu.Lock()
	sh.seg.put(k, h, v, cost)
	sh.mu.Unlock()
}

// Delete removes k, reporting whether it was present.
func (s *ShardedCache[K, V]) Delete(k K) bool {
	h := s.hash(k)
	sh := s.shardFor(h)
	sh.mu.Lock()
	ok := sh.seg.del(k, h)
	sh.mu.Unlock()
	return ok
}

// lockAll acquires every shard lock in index order (the fixed order
// makes concurrent aggregate calls deadlock-free) and returns the
// matching unlock. Aggregates summed under it are a single globally
// consistent snapshot: locking shards one at a time instead would let
// an in-flight Get on an already-summed shard race ahead of one on a
// not-yet-summed shard and produce torn sums (transiently
// Hits+Misses != total Gets), which showed up as flaky conservation
// checks in monitoring scrapes.
func (s *ShardedCache[K, V]) lockAll() (unlock func()) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	return func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}
}

// Len returns the total number of live entries across shards, as one
// consistent snapshot.
func (s *ShardedCache[K, V]) Len() int {
	unlock := s.lockAll()
	defer unlock()
	n := 0
	for _, sh := range s.shards {
		n += sh.seg.len()
	}
	return n
}

// Stats returns the operation counters summed over shards, as one
// consistent snapshot.
func (s *ShardedCache[K, V]) Stats() Stats {
	unlock := s.lockAll()
	defer unlock()
	var out Stats
	for _, sh := range s.shards {
		out.add(sh.seg.stats)
	}
	return out
}

// Shards returns the shard count.
func (s *ShardedCache[K, V]) Shards() int { return len(s.shards) }

// Policy returns the active eviction policy's name.
func (s *ShardedCache[K, V]) Policy() string { return s.shards[0].seg.pol.Name() }

// Range calls fn for every entry until fn returns false. fn runs with
// the entry's shard lock held: keep it short and do not call back
// into the cache.
func (s *ShardedCache[K, V]) Range(fn func(K, V) bool) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		more := sh.seg.rangeEntries(fn)
		sh.mu.Unlock()
		if !more {
			return
		}
	}
}

// CheckIntegrity validates every shard's internal invariants.
func (s *ShardedCache[K, V]) CheckIntegrity() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.seg.checkIntegrity()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
