package cache_test

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"testing"

	"care/cache"
)

// mixedCache is the full surface the digest stream and the model
// checks drive: Cache and ShardedCache both satisfy it.
type mixedCache interface {
	Get(uint64) (uint64, bool)
	Put(uint64, uint64)
	PutCost(uint64, uint64, float64)
	Delete(uint64) bool
	Len() int
	Stats() cache.Stats
	Range(func(uint64, uint64) bool)
	CheckIntegrity() error
}

// digestOps is the length of the seeded stream each digest replays.
const digestOps = 100_000

// digestRun replays a seeded single-threaded stream of Gets (read-
// through on a miss), Puts that insert or update, Put-updates of the
// hot head, PutCosts and Deletes, and summarises the outcome: a hash
// of the OnEvict key sequence and of every Get result, the Stats, Len,
// and a hash of the sorted Range contents.
func digestRun(t *testing.T, build func(onEvict func(uint64, uint64)) (mixedCache, error)) string {
	t.Helper()
	evictH := sha256.New()
	evictions := 0
	c, err := build(func(k, v uint64) {
		writeU64(evictH, k, v)
		evictions++
	})
	if err != nil {
		t.Fatal(err)
	}
	getH := sha256.New()
	rng := uint64(0x2545f4914f6cdd1d)
	for i := uint64(0); i < digestOps; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		r := rng
		k := 64 + r%4096 // cold tail, four times the capacity
		if r%3 == 0 {
			k = r % 64 // hot head
		}
		cost := float64(r % 450)
		switch op := (r >> 20) % 16; {
		case op < 7:
			v, ok := c.Get(k)
			writeU64(getH, v, b2u(ok))
			if !ok {
				c.PutCost(k, i, cost)
			}
		case op < 10:
			c.Put(k, i)
		case op < 12:
			c.Put(r%64, i) // hot head: almost always an update
		case op < 15:
			c.PutCost(k, i, cost)
		default:
			c.Delete(k)
		}
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	type kv struct{ k, v uint64 }
	var entries []kv
	c.Range(func(k, v uint64) bool { entries = append(entries, kv{k, v}); return true })
	slices.SortFunc(entries, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
	rangeH := sha256.New()
	for _, e := range entries {
		writeU64(rangeH, e.k, e.v)
	}
	return fmt.Sprintf("evict=%d/%s gets=%s stats=%+v len=%d range=%s",
		evictions, short(evictH), short(getH), c.Stats(), c.Len(), short(rangeH))
}

func writeU64(h hash.Hash, xs ...uint64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func short(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// TestGoldenDigest is the library's byte-identity oracle: for every
// supported policy, on a flat Cache and on a 4-shard ShardedCache, the
// seeded stream must reproduce the summary recorded below. Eviction
// order, Get results, counters and contents are all behaviour; a
// change that only makes the cache faster must leave every line as it
// is. (TestSingleShardParity cannot catch a change to the shared
// segment code, since both wrappers change together.)
func TestGoldenDigest(t *testing.T) {
	for _, pol := range cache.Supported() {
		t.Run(pol, func(t *testing.T) {
			opts := cache.Options[uint64, uint64]{
				Capacity: 1024, Ways: 8, Policy: pol, Seed: 11, DefaultCost: 120,
			}
			flat := digestRun(t, func(onEvict func(uint64, uint64)) (mixedCache, error) {
				o := opts
				o.OnEvict = onEvict
				return cache.New(o)
			})
			sharded := digestRun(t, func(onEvict func(uint64, uint64)) (mixedCache, error) {
				o := opts
				o.OnEvict, o.Shards = onEvict, 4
				return cache.NewSharded(o)
			})
			want, ok := goldenDigests[pol]
			if !ok {
				t.Fatalf("no digest recorded for %s:\n\t%q: {\n\t\t%q,\n\t\t%q,\n\t},", pol, pol, flat, sharded)
			}
			if flat != want[0] {
				t.Errorf("flat Cache\n got %s\nwant %s", flat, want[0])
			}
			if sharded != want[1] {
				t.Errorf("4-shard ShardedCache\n got %s\nwant %s", sharded, want[1])
			}
		})
	}
}

// goldenDigests maps each policy to its {flat, 4-shard} summaries.
var goldenDigests = map[string][2]string{
	"care": {
		"evict=39749/f71afe3239fc6798 gets=13ecfe1d49a5d915 stats={Hits:20567 Misses:23253 Inserts:43637 Updates:29536 Evictions:39749 Deletes:2868} len=1020 range=4f6f4124a8c65bd0",
		"evict=39647/170972c6c7a66bc6 gets=00c23bd101315111 stats={Hits:20559 Misses:23261 Inserts:43578 Updates:29603 Evictions:39647 Deletes:2911} len=1020 range=b9baaf5621337894",
	},
	"lru": {
		"evict=39598/10e2d3b8ae6107e8 gets=33a34aa3fa7e0ca7 stats={Hits:20582 Misses:23238 Inserts:43553 Updates:29605 Evictions:39598 Deletes:2937} len=1018 range=a2d4cfaa8216ffdd",
		"evict=39632/16f7f1a232a81c0c gets=74feacd8298cbd77 stats={Hits:20550 Misses:23270 Inserts:43597 Updates:29593 Evictions:39632 Deletes:2946} len=1019 range=d3e2bff9c240c155",
	},
	"m-care": {
		"evict=39749/f71afe3239fc6798 gets=13ecfe1d49a5d915 stats={Hits:20567 Misses:23253 Inserts:43637 Updates:29536 Evictions:39749 Deletes:2868} len=1020 range=4f6f4124a8c65bd0",
		"evict=39647/170972c6c7a66bc6 gets=00c23bd101315111 stats={Hits:20559 Misses:23261 Inserts:43578 Updates:29603 Evictions:39647 Deletes:2911} len=1020 range=b9baaf5621337894",
	},
	"ship++": {
		"evict=39668/234c3d9c4838de36 gets=56cf3ac362a6b6fd stats={Hits:20577 Misses:23243 Inserts:43558 Updates:29605 Evictions:39668 Deletes:2871} len=1019 range=c3cdc55779bb0518",
		"evict=39644/d944f6701bd9a145 gets=57852573b9dfd97a stats={Hits:20564 Misses:23256 Inserts:43599 Updates:29577 Evictions:39644 Deletes:2934} len=1021 range=0ad63f7b8826a86e",
	},
	"srrip": {
		"evict=39770/9580f011e7bd1d3c gets=255b9bb1f1800912 stats={Hits:20498 Misses:23322 Inserts:43703 Updates:29539 Evictions:39770 Deletes:2913} len=1020 range=9af258fc7fad963d",
		"evict=39752/2f2a7d7ac23ca7b7 gets=aadba6b5c5668ec0 stats={Hits:20492 Misses:23328 Inserts:43691 Updates:29557 Evictions:39752 Deletes:2920} len=1019 range=ce57063c0e8e6c3e",
	},
}
