// Package cache is an importable, production-oriented key-value cache
// backed by the repo's replacement-policy zoo: the same LRU, RRIP,
// SHiP++ and CARE implementations the cycle-accurate simulator
// evaluates, driving a generics-based Get/Put/Delete cache for
// service traffic.
//
// Two types share one implementation (the shared-segment pattern): a
// segment holds all algorithm state — the set-associative slot
// arrays (a key is found by comparing the tags in its set's ways,
// with no side index) and its own instance of the policy, which it
// drives directly, translating each key operation into the policy's
// access vocabulary — and is wrapped by
//
//   - Cache: a zero-overhead single-threaded wrapper (no locks, no
//     runtime dispatch), and
//   - ShardedCache: keys hashed across N power-of-two segments with a
//     per-segment mutex, safe for concurrent use.
//
// Because both wrappers execute the identical segment code, a
// ShardedCache with one shard makes byte-identical eviction decisions
// to a Cache — a property the tests enforce for every supported
// policy.
//
// Policies are selected by name (see Supported): LRU, SRRIP, SHiP++,
// CARE and M-CARE, built by internal/policy as for a one-core LLC.
// PC-signature-trained policies (SHiP++, CARE) are driven with a
// stable per-key hash in place of the program counter, turning them
// into per-key reuse/cost predictors; the policies that require
// cycle-accurate simulator state (Hawkeye, Glider, Mockingjay) are
// rejected at construction with *ErrUnsupportedPolicy, per
// policy.Policy.Portable.
package cache

import (
	"fmt"
	"math/bits"
	"runtime"

	icache "care/internal/cache"
	careplc "care/internal/core/care"
	"care/internal/policy"
)

// ErrUnsupportedPolicy reports a policy the cache library cannot
// drive: either a name outside the zoo, or a zoo policy that needs
// cycle-accurate simulator state.
type ErrUnsupportedPolicy struct {
	// Policy is the offending name.
	Policy string
	// Reason says why it was rejected.
	Reason string
}

func (e *ErrUnsupportedPolicy) Error() string {
	return fmt.Sprintf("cache: unsupported policy %q: %s", e.Policy, e.Reason)
}

// ErrNoHash reports a key type without a built-in hash; set
// Options.Hash.
type ErrNoHash struct {
	// KeyType names the Go type of K.
	KeyType string
}

func (e *ErrNoHash) Error() string {
	return fmt.Sprintf("cache: no built-in hash for key type %s; set Options.Hash", e.KeyType)
}

// DefaultWays is the set associativity used when Options.Ways is 0.
const DefaultWays = 16

// maxWays bounds associativity to one occupancy-bitmask word.
const maxWays = 64

// Options configures a Cache or ShardedCache.
type Options[K comparable, V any] struct {
	// Capacity is the number of entries the cache holds. It is
	// rounded up to the nearest shards×sets×ways geometry (sets are a
	// power of two). Required, >= 1.
	Capacity int
	// Policy names the eviction policy; see Supported for the valid
	// set. Empty means "lru".
	Policy string
	// Ways is the set associativity (victims are chosen among Ways
	// candidates). 0 means DefaultWays; max 64.
	Ways int
	// Shards is the segment count for NewSharded, rounded up to a
	// power of two. 0 picks a power of two >= 4×GOMAXPROCS. New
	// (single-threaded) ignores it.
	Shards int
	// Seed makes hashing (and therefore set/shard placement)
	// deterministic: equal seeds give identical placement across
	// processes.
	Seed uint64
	// Hash overrides the built-in key hash. Required for key types
	// other than strings and fixed-width integers; must be
	// deterministic for determinism guarantees to hold.
	Hash func(K) uint64
	// OnEvict, if set, is called synchronously with each entry the
	// policy evicts to make room (not for explicit Deletes). In a
	// ShardedCache it runs while the shard lock is held: keep it
	// short and do not call back into the cache.
	OnEvict func(key K, value V)
	// DefaultCost is the miss cost Put attributes to an entry, in the
	// caller's cost units (e.g. backend latency); PutCost overrides
	// it per entry. Cost-sensitive policies (CARE, M-CARE) use it to
	// decide which moderate-reuse entries are worth keeping.
	DefaultCost float64
}

// Supported returns the policy names this library accepts, sorted.
func Supported() []string {
	ps := policy.Portable()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = string(p)
	}
	return out
}

// config is the resolved, validated form of Options.
type config[K comparable, V any] struct {
	pol     policy.Policy
	sets    int // per shard
	ways    int
	shards  int
	hash    func(K) uint64
	onEvict func(K, V)
	defCost float64
}

func resolve[K comparable, V any](o Options[K, V], sharded bool) (config[K, V], error) {
	var c config[K, V]
	if o.Capacity < 1 {
		return c, fmt.Errorf("cache: Capacity %d; want >= 1", o.Capacity)
	}
	name := o.Policy
	if name == "" {
		name = string(policy.LRU)
	}
	p, err := policy.Parse(name)
	if err != nil {
		return c, &ErrUnsupportedPolicy{Policy: name,
			Reason: fmt.Sprintf("unknown policy (supported: %v)", Supported())}
	}
	if !p.Portable() {
		return c, &ErrUnsupportedPolicy{Policy: name,
			Reason: "requires cycle-accurate simulator state (see internal/policy capability metadata)"}
	}
	c.pol = p

	c.ways = o.Ways
	if c.ways == 0 {
		c.ways = DefaultWays
	}
	if c.ways < 1 || c.ways > maxWays {
		return c, fmt.Errorf("cache: Ways %d; want 1..%d", o.Ways, maxWays)
	}
	if o.Capacity < c.ways {
		c.ways = o.Capacity
	}

	c.shards = 1
	if sharded {
		c.shards = o.Shards
		if c.shards == 0 {
			c.shards = 4 * runtime.GOMAXPROCS(0)
		}
		if c.shards < 1 {
			return c, fmt.Errorf("cache: Shards %d; want >= 0", o.Shards)
		}
		c.shards = ceilPow2(c.shards)
	}

	// Total sets for the requested capacity, split over shards; every
	// shard keeps at least one full set.
	totalSets := ceilPow2((o.Capacity + c.ways - 1) / c.ways)
	c.sets = totalSets / c.shards
	if c.sets < 1 {
		c.sets = 1
	}

	c.hash = o.Hash
	if c.hash == nil {
		if c.hash = builtinHash[K](o.Seed); c.hash == nil {
			var zero K
			return c, &ErrNoHash{KeyType: fmt.Sprintf("%T", zero)}
		}
	}
	c.onEvict = o.OnEvict
	c.defCost = o.DefaultCost
	return c, nil
}

// newPolicy builds a policy instance for one segment. Each segment
// owns its own policy state (sharding shards the predictor too). The
// policy is built as for a 1-core LLC with CARE's default tuning.
func (c config[K, V]) newPolicy() (icache.Policy, error) {
	return policy.New(c.pol, 1, careplc.Config{})
}

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Cache is the single-threaded wrapper: one segment, no locks, no
// indirection — zero overhead beyond the algorithm itself. Not safe
// for concurrent use; use NewSharded for that.
type Cache[K comparable, V any] struct {
	seg         segment[K, V]
	defaultCost float64
}

// New builds a single-threaded cache.
func New[K comparable, V any](o Options[K, V]) (*Cache[K, V], error) {
	cfg, err := resolve(o, false)
	if err != nil {
		return nil, err
	}
	pol, err := cfg.newPolicy()
	if err != nil {
		return nil, err
	}
	c := &Cache[K, V]{defaultCost: cfg.defCost}
	c.seg.init(cfg.sets, cfg.ways, cfg.hash, pol, cfg.onEvict)
	return c, nil
}

// Get returns the value cached for k, updating the policy's recency/
// reuse state on a hit.
func (c *Cache[K, V]) Get(k K) (V, bool) { return c.seg.get(k, c.seg.hash(k)) }

// Put inserts or updates k with the configured DefaultCost.
func (c *Cache[K, V]) Put(k K, v V) { c.seg.put(k, c.seg.hash(k), v, c.defaultCost) }

// PutCost inserts or updates k, attributing cost (the price of
// recomputing the value — e.g. measured backend latency) to the miss
// that produced it. Cost-sensitive policies keep expensive entries
// over cheap ones when reuse evidence alone cannot decide.
func (c *Cache[K, V]) PutCost(k K, v V, cost float64) { c.seg.put(k, c.seg.hash(k), v, cost) }

// Delete removes k, reporting whether it was present.
func (c *Cache[K, V]) Delete(k K) bool { return c.seg.del(k, c.seg.hash(k)) }

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int { return c.seg.len() }

// Stats returns a copy of the operation counters.
func (c *Cache[K, V]) Stats() Stats { return c.seg.stats }

// Policy returns the active eviction policy's name.
func (c *Cache[K, V]) Policy() string { return c.seg.pol.Name() }

// Range calls fn for every entry until fn returns false. Iteration
// order is unspecified but deterministic for a given history.
func (c *Cache[K, V]) Range(fn func(K, V) bool) { c.seg.rangeEntries(fn) }

// CheckIntegrity validates the internal slot/occupancy/policy
// invariants; it is cheap enough for tests and paranoid embedders.
func (c *Cache[K, V]) CheckIntegrity() error { return c.seg.checkIntegrity() }
