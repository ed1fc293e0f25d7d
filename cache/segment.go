package cache

import (
	"fmt"
	"math/bits"

	"care/internal/replacement"
)

// Stats counts the operations a cache (or one shard of one) has
// served. Counters are monotonic; read them via Cache.Stats /
// ShardedCache.Stats, which return a consistent copy.
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses uint64
	// Inserts counts Puts of absent keys; Updates counts Puts that
	// overwrote a present key in place.
	Inserts, Updates uint64
	// Evictions counts entries removed by policy decision to make
	// room. Deletes counts explicit Delete calls that removed a key.
	Evictions, Deletes uint64
}

// HitRatio is Hits / (Hits + Misses), or 0 before any Get.
func (s Stats) HitRatio() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Inserts += o.Inserts
	s.Updates += o.Updates
	s.Evictions += o.Evictions
	s.Deletes += o.Deletes
}

// segment holds ALL algorithm state and eviction logic for one
// sets×ways region of the cache: the slot arrays, their per-set
// occupancy masks, and the replacement-policy adapter. It is written
// once and wrapped twice — zero-overhead by Cache (no locking) and by
// ShardedCache (N segments behind per-segment mutexes) — the
// shared-segment pattern, so the two types cannot drift apart in
// behaviour.
//
// Like a hardware set-associative cache it keeps no side index: a
// key lives only in set hash&setMask, and find compares the tags
// (sigs, then keys) of that set's live ways.
//
// A segment is not safe for concurrent use; its wrapper provides
// whatever exclusion is needed.
type segment[K comparable, V any] struct {
	ways    int
	setMask uint64
	// waysMask has one bit per way, for the free-way scan.
	waysMask uint64
	hash     func(K) uint64
	ad       *replacement.Adapter
	// keys, vals and sigs are the slot arrays, indexed by flat slot
	// (set*ways + way). sigs holds each live slot's key hash, which
	// find compares before the key.
	keys []K
	vals []V
	sigs []uint64
	// occ is a per-set occupancy bitmask (bit w = way w live); live
	// is the total number of set bits.
	occ         []uint64
	live        int
	onEvict     func(K, V)
	defaultCost float64
	stats       Stats
}

func (s *segment[K, V]) init(sets, ways int, hash func(K) uint64, ad *replacement.Adapter,
	onEvict func(K, V), defaultCost float64) {
	s.ways = ways
	s.setMask = uint64(sets - 1)
	s.waysMask = 1<<ways - 1
	s.hash = hash
	s.ad = ad
	s.keys = make([]K, sets*ways)
	s.vals = make([]V, sets*ways)
	s.sigs = make([]uint64, sets*ways)
	s.occ = make([]uint64, sets)
	s.onEvict = onEvict
	s.defaultCost = defaultCost
}

// find returns k's flat slot, or -1 if k is not live. h must be
// s.hash(k). It walks only the live ways of k's set and compares a
// slot's cached hash before its key, so a miss rarely touches keys.
func (s *segment[K, V]) find(k K, h uint64) int {
	set := int(h & s.setMask)
	base := set * s.ways
	for m := s.occ[set]; m != 0; m &= m - 1 {
		idx := base + bits.TrailingZeros64(m)
		if s.sigs[idx] == h && s.keys[idx] == k {
			return idx
		}
	}
	return -1
}

// get looks k up, updating policy recency state on a hit. h must be
// s.hash(k) (the wrappers compute it once, for shard routing too).
func (s *segment[K, V]) get(k K, h uint64) (V, bool) {
	if idx := s.find(k, h); idx >= 0 {
		set := int(h & s.setMask)
		s.ad.OnHit(set, idx-set*s.ways, replacement.Access{Sig: h, Block: h})
		s.stats.Hits++
		return s.vals[idx], true
	}
	s.stats.Misses++
	var zero V
	return zero, false
}

// put inserts or updates k. h must be s.hash(k). cost is the miss
// cost fed to cost-sensitive policies.
func (s *segment[K, V]) put(k K, h uint64, v V, cost float64) {
	set := int(h & s.setMask)
	if idx := s.find(k, h); idx >= 0 {
		s.vals[idx] = v
		s.ad.OnHit(set, idx-set*s.ways, replacement.Access{Sig: h, Block: h, Write: true})
		s.stats.Updates++
		return
	}
	acc := replacement.Access{Sig: h, Block: h, Write: true, Cost: cost}
	var way int
	if free := ^s.occ[set] & s.waysMask; free != 0 {
		way = bits.TrailingZeros64(free)
		s.live++
	} else {
		way = s.ad.Victim(set, acc)
		vidx := set*s.ways + way
		oldK, oldV := s.keys[vidx], s.vals[vidx]
		s.ad.OnEvict(set, way, acc)
		s.stats.Evictions++
		if s.onEvict != nil {
			s.onEvict(oldK, oldV)
		}
	}
	idx := set*s.ways + way
	s.keys[idx] = k
	s.vals[idx] = v
	s.sigs[idx] = h
	s.occ[set] |= 1 << way
	s.ad.OnFill(set, way, acc)
	s.stats.Inserts++
}

// del removes k if present. h must be s.hash(k). The policy is
// notified (OnEvict) so its per-slot training state is settled, then
// the slot is invalidated — a terminal Delete leaves no trace of the
// key.
func (s *segment[K, V]) del(k K, h uint64) bool {
	idx := s.find(k, h)
	if idx < 0 {
		return false
	}
	set := int(h & s.setMask)
	way := idx - set*s.ways
	s.ad.OnEvict(set, way, replacement.Access{Sig: h, Block: h})
	s.ad.Invalidate(set, way)
	s.occ[set] &^= 1 << way
	s.live--
	var zeroK K
	var zeroV V
	s.keys[idx] = zeroK // release references held by evicted slots
	s.vals[idx] = zeroV
	s.stats.Deletes++
	return true
}

func (s *segment[K, V]) len() int { return s.live }

// rangeEntries calls fn for every live entry until fn returns false.
func (s *segment[K, V]) rangeEntries(fn func(K, V) bool) bool {
	for set, occ := range s.occ {
		for m := occ; m != 0; m &= m - 1 {
			idx := set*s.ways + bits.TrailingZeros64(m)
			if !fn(s.keys[idx], s.vals[idx]) {
				return false
			}
		}
	}
	return true
}

// checkIntegrity cross-validates the slot arrays, the occupancy
// bitmasks and the live count against each other and against the
// adapter's block validity: every live slot's sig is its key's hash,
// the key sits in the set that hash selects, and find reaches that
// very slot (so no key is live in two ways of a set). The stress
// tests call it under -race; it is exported on both wrappers for
// embedders to do the same.
func (s *segment[K, V]) checkIntegrity() error {
	live := 0
	for set, occ := range s.occ {
		if occ&^s.waysMask != 0 {
			return fmt.Errorf("cache: set %d occupancy %#x exceeds %d ways", set, occ, s.ways)
		}
		live += bits.OnesCount64(occ)
		for w := 0; w < s.ways; w++ {
			if got, want := s.ad.Valid(set, w), occ&(1<<w) != 0; got != want {
				return fmt.Errorf("cache: set %d way %d adapter valid=%v but occupancy=%v", set, w, got, want)
			}
		}
		for m := occ; m != 0; m &= m - 1 {
			idx := set*s.ways + bits.TrailingZeros64(m)
			k, sig := s.keys[idx], s.sigs[idx]
			if h := s.hash(k); sig != h {
				return fmt.Errorf("cache: slot %d sig %#x but its key hashes to %#x", idx, sig, h)
			}
			if int(sig&s.setMask) != set {
				return fmt.Errorf("cache: slot %d key belongs in set %d, not %d", idx, sig&s.setMask, set)
			}
			if got := s.find(k, sig); got != idx {
				return fmt.Errorf("cache: slot %d key is also live in slot %d of set %d", idx, got, set)
			}
		}
	}
	if live != s.live {
		return fmt.Errorf("cache: %d occupied slots but live count %d", live, s.live)
	}
	return nil
}
