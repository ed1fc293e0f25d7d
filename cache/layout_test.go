package cache

import (
	"runtime"
	"testing"
	"unsafe"
)

// lineSize is the cache-line size the layout is laid out for.
const lineSize = 64

// TestShardLayout pins the shard layout a Get hit relies on: the
// fields an operation writes (the mutex, stats and live) all end
// within the shard's first line, the shard is a whole number of lines,
// and allocated shards start on a line boundary, so no two shards
// share a line. A field added or moved ahead of stats would put the
// counters a line away from the lock, and a hit would dirty two lines
// instead of one. segment's fields are slices, funcs and scalars
// whatever K and V are, so one instantiation stands for all.
func TestShardLayout(t *testing.T) {
	var sh shard[uint64, uint64]
	if size := unsafe.Sizeof(sh); size%lineSize != 0 {
		t.Errorf("shard is %d bytes, not a multiple of %d", size, lineSize)
	}
	seg := unsafe.Offsetof(sh.seg)
	for _, f := range []struct {
		name string
		end  uintptr
	}{
		{"mu", unsafe.Offsetof(sh.mu) + unsafe.Sizeof(sh.mu)},
		{"stats", seg + unsafe.Offsetof(sh.seg.stats) + unsafe.Sizeof(sh.seg.stats)},
		{"live", seg + unsafe.Offsetof(sh.seg.live) + unsafe.Sizeof(sh.seg.live)},
	} {
		if f.end > lineSize {
			t.Errorf("%s ends at byte %d, past the first line", f.name, f.end)
		}
	}

	c, err := NewSharded(Options[uint64, uint64]{Capacity: 1 << 10, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range c.shards {
		if uintptr(unsafe.Pointer(sh))%lineSize != 0 {
			t.Fatalf("shard %d was allocated at %p, not on a %d-byte line", i, sh, lineSize)
		}
	}
}

// TestFootprint pins the heap a CARE ShardedCache of 2^18 uint64
// entries allocates when it is built: at most 22 bytes per entry. An
// entry costs 16 bytes of key and value, a tag byte, CARE's state byte
// and an eighth of its set's occupancy word; each shard adds CARE's
// SHT and the training records of its 64 sampled sets. The shard count
// is fixed, so the result does not depend on GOMAXPROCS.
func TestFootprint(t *testing.T) {
	const entries, maxPerEntry = 1 << 18, 22
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := NewSharded(Options[uint64, uint64]{Capacity: entries, Policy: "care", Shards: 8})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(c)
	if perEntry := float64(after.TotalAlloc-before.TotalAlloc) / entries; perEntry > maxPerEntry {
		t.Errorf("NewSharded allocated %.2f bytes per entry, want at most %d", perEntry, maxPerEntry)
	} else {
		t.Logf("%.2f bytes per entry", perEntry)
	}
}
