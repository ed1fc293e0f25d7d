package cache

import (
	"fmt"
	"math/bits"

	icache "care/internal/cache"
	"care/internal/mem"
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
// sets×ways region of the cache: the slots, their tags, the per-set
// occupancy masks, and the replacement policy. It is written once and
// wrapped twice — zero-overhead by Cache (no locking) and by
// ShardedCache (N segments behind per-segment mutexes) — the
// shared-segment pattern, so the two types cannot drift apart in
// behaviour.
//
// Like a hardware set-associative cache it keeps no side index: a
// key lives only in set hash&setMask, and find compares the 8-bit
// tags of that set's live ways, then the key of a way whose tag
// matches. The occupancy masks are the only record of which ways are
// live: the policy keeps its own per-slot state, not liveness.
//
// A segment is not safe for concurrent use; its wrapper provides
// whatever exclusion is needed.
//
// Field order is part of the hot path. stats and live, the only
// fields an operation writes, come first: in ShardedCache's
// shard{mu, seg} they share the mutex's 64-byte line, so a Get hit
// dirties that one line of the shard. The fields after them are read
// only after init (the slices' contents are written, never their
// headers) and fill the shard's next two lines. Put's default cost,
// which no Get reads, stays in the wrappers, so the shard stays three
// lines.
type segment[K comparable, V any] struct {
	stats Stats
	// live is the total number of set bits in occ.
	live int

	ways    int
	setMask uint64
	// waysMask has one bit per way, for the free-way scan.
	waysMask uint64
	hash     func(K) uint64
	pol      icache.Policy
	// slots and tags are indexed by flat slot (set*ways + way). A
	// slot keeps key and value together, so a hit reads one line;
	// tags holds each live slot's tagOf(hash), which find compares
	// before the key, so a miss rarely touches slots.
	slots []slot[K, V]
	tags  []uint8
	// occ is a per-set occupancy bitmask (bit w = way w live).
	occ     []uint64
	onEvict func(K, V)
}

// slot is one entry: a key and its value.
type slot[K comparable, V any] struct {
	key K
	val V
}

// tagOf is the 8-bit fingerprint find compares before the key. It
// takes hash bits 32–39, which neither the set index (low bits) nor
// the sharded wrapper's shard index (high bits) uses at any practical
// geometry, so keys that share a set mostly differ in their tags.
func tagOf(h uint64) uint8 { return uint8(h >> 32) }

// access is the policy's view of an operation on the key hashing to
// h, in the simulator's vocabulary: the hash stands in for the program
// counter, which turns the signature-trained predictors (SHiP++, CARE)
// into per-key ones, and for the block; a write is a store; cost, the
// miss cost of a fill, goes on both cost channels (PMC for CARE, MLP
// cost for M-CARE), so the choice of channel stays a policy detail.
func access(h uint64, kind mem.Kind, cost float64) icache.AccessInfo {
	return icache.AccessInfo{
		PC:      mem.Addr(h),
		Addr:    mem.Addr(h << mem.BlockBits),
		Kind:    kind,
		PMC:     cost,
		MLPCost: cost,
	}
}

// init sizes the segment and calls pol.Init with its geometry.
func (s *segment[K, V]) init(sets, ways int, hash func(K) uint64, pol icache.Policy, onEvict func(K, V)) {
	pol.Init(sets, ways)
	s.ways = ways
	s.setMask = uint64(sets - 1)
	s.waysMask = 1<<ways - 1
	s.hash = hash
	s.pol = pol
	s.slots = make([]slot[K, V], sets*ways)
	s.tags = make([]uint8, sets*ways)
	s.occ = make([]uint64, sets)
	s.onEvict = onEvict
}

// find returns k's flat slot, or -1 if k is not live. h must be
// s.hash(k). It walks only the live ways of k's set and compares a
// slot's tag before its key.
func (s *segment[K, V]) find(k K, h uint64) int {
	set := int(h & s.setMask)
	base := set * s.ways
	tag := tagOf(h)
	for m := s.occ[set]; m != 0; m &= m - 1 {
		idx := base + bits.TrailingZeros64(m)
		if s.tags[idx] == tag && s.slots[idx].key == k {
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
		s.pol.OnHit(set, idx-set*s.ways, access(h, mem.Load, 0))
		s.stats.Hits++
		return s.slots[idx].val, true
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
		s.slots[idx].val = v
		s.pol.OnHit(set, idx-set*s.ways, access(h, mem.Store, 0))
		s.stats.Updates++
		return
	}
	acc := access(h, mem.Store, cost)
	var way int
	if free := ^s.occ[set] & s.waysMask; free != 0 {
		way = bits.TrailingZeros64(free)
		s.live++
	} else {
		way = s.pol.Victim(set, acc)
		old := s.slots[set*s.ways+way]
		s.pol.OnEvict(set, way, acc)
		s.stats.Evictions++
		if s.onEvict != nil {
			s.onEvict(old.key, old.val)
		}
	}
	idx := set*s.ways + way
	s.slots[idx] = slot[K, V]{k, v}
	s.tags[idx] = tagOf(h)
	s.occ[set] |= 1 << way
	s.pol.OnFill(set, way, acc)
	s.stats.Inserts++
}

// del removes k if present. h must be s.hash(k). The policy is
// notified (OnEvict) so its per-slot training state is settled, then
// the slot is freed — a terminal Delete leaves no trace of the key.
func (s *segment[K, V]) del(k K, h uint64) bool {
	idx := s.find(k, h)
	if idx < 0 {
		return false
	}
	set := int(h & s.setMask)
	way := idx - set*s.ways
	s.pol.OnEvict(set, way, access(h, mem.Load, 0))
	s.occ[set] &^= 1 << way
	s.live--
	s.slots[idx] = slot[K, V]{} // release references held by the slot
	s.stats.Deletes++
	return true
}

func (s *segment[K, V]) len() int { return s.live }

// rangeEntries calls fn for every live entry until fn returns false.
func (s *segment[K, V]) rangeEntries(fn func(K, V) bool) bool {
	for set, occ := range s.occ {
		for m := occ; m != 0; m &= m - 1 {
			e := &s.slots[set*s.ways+bits.TrailingZeros64(m)]
			if !fn(e.key, e.val) {
				return false
			}
		}
	}
	return true
}

// checkIntegrity cross-validates the slots, their tags, the
// occupancy bitmasks and the live count against each other: every
// live slot's tag is its key's hash's tag, the key sits in the set
// that hash selects, and find reaches that very slot (so no key is
// live in two ways of a set). The stress tests call it under -race;
// it is exported on both wrappers for embedders to do the same.
func (s *segment[K, V]) checkIntegrity() error {
	live := 0
	for set, occ := range s.occ {
		if occ&^s.waysMask != 0 {
			return fmt.Errorf("cache: set %d occupancy %#x exceeds %d ways", set, occ, s.ways)
		}
		live += bits.OnesCount64(occ)
		for m := occ; m != 0; m &= m - 1 {
			idx := set*s.ways + bits.TrailingZeros64(m)
			k := s.slots[idx].key
			h := s.hash(k)
			if tag := s.tags[idx]; tag != tagOf(h) {
				return fmt.Errorf("cache: slot %d tag %#x but its key hashes to tag %#x", idx, tag, tagOf(h))
			}
			if int(h&s.setMask) != set {
				return fmt.Errorf("cache: slot %d key belongs in set %d, not %d", idx, h&s.setMask, set)
			}
			if got := s.find(k, h); got != idx {
				return fmt.Errorf("cache: slot %d key is also live in slot %d of set %d", idx, got, set)
			}
		}
	}
	if live != s.live {
		return fmt.Errorf("cache: %d occupied slots but live count %d", live, s.live)
	}
	return nil
}
