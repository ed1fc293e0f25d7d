package replacement

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"care/internal/cache"
	"care/internal/mem"
)

// runSeq replays a sequence of accesses through a standalone cache
// (no lower level: misses fill instantly) under the given policy and
// returns the demand hit/miss counts.
func runSeq(p cache.Policy, sets, ways int, accs []cache.AccessInfo) (hits, misses uint64) {
	c := cache.New(cache.Params{
		Name: "t", Sets: sets, Ways: ways, Latency: 1, MSHREntries: 16, Cores: 4,
	}, p)
	cycle := uint64(0)
	for _, a := range accs {
		c.Access(&mem.Request{Addr: a.Addr, PC: a.PC, Core: a.Core, Kind: a.Kind}, cycle)
		c.Tick(cycle)
		c.Tick(cycle + 1)
		cycle += 2
	}
	s := c.Stats()
	return s.DemandHits, s.DemandMisses
}

// loads converts block indexes to load AccessInfos with one PC.
func loads(pc mem.Addr, blocks ...uint64) []cache.AccessInfo {
	out := make([]cache.AccessInfo, len(blocks))
	for i, b := range blocks {
		out[i] = cache.AccessInfo{Addr: mem.Addr(b << mem.BlockBits), PC: pc, Kind: mem.Load}
	}
	return out
}

func TestSignature(t *testing.T) {
	a := Signature(0x400123, false)
	if a != Signature(0x400123, false) {
		t.Fatal("signature must be deterministic")
	}
	if a>>SignatureBits != 0 {
		t.Fatalf("signature %#x exceeds %d bits", a, SignatureBits)
	}
	if Signature(0x400123, true) == a {
		t.Fatal("prefetch bit must change the signature")
	}
	// The prefetch bit is the top bit; lower bits match.
	mask := uint16(1<<(SignatureBits-1)) - 1
	if Signature(0x400123, true)&mask != a&mask {
		t.Fatal("prefetch variant should share the hash bits")
	}
}

func TestSampledSets(t *testing.T) {
	s := NewSampledSets(2048, 64)
	count := 0
	for i := 0; i < 2048; i++ {
		if s.Sampled(i) {
			count++
		}
	}
	if count != 64 {
		t.Fatalf("sampled %d sets, want 64", count)
	}
	all := NewSampledSets(16, 0)
	for i := 0; i < 16; i++ {
		if !all.Sampled(i) {
			t.Fatal("want=0 should sample everything")
		}
	}
}

// simulateLRUOffline runs true LRU over a block-address sequence for
// a sets×ways cache, apart from the cache model, and returns the hit
// and miss counts.
func simulateLRUOffline(addrs []mem.Addr, sets, ways int) (hits, misses uint64) {
	resident := make([]map[uint64]uint64, sets) // block -> last-use stamp
	for i := range resident {
		resident[i] = make(map[uint64]uint64, ways)
	}
	for clock, a := range addrs {
		blk := a.BlockID()
		r := resident[blk%uint64(sets)]
		if _, ok := r[blk]; ok {
			hits++
		} else {
			misses++
			if len(r) >= ways {
				var victim uint64
				oldest := uint64(math.MaxUint64)
				for b, stamp := range r {
					if stamp < oldest {
						victim, oldest = b, stamp
					}
				}
				delete(r, victim)
			}
		}
		r[blk] = uint64(clock)
	}
	return hits, misses
}

func TestLRUStackProperty(t *testing.T) {
	// With the real cache plumbing, LRU must match the offline LRU
	// simulator on any sequence.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 300
		addrs := make([]mem.Addr, n)
		accs := make([]cache.AccessInfo, n)
		for i := range addrs {
			b := uint64(rng.Intn(64))
			addrs[i] = mem.Addr(b << mem.BlockBits)
			accs[i] = cache.AccessInfo{Addr: addrs[i], PC: 0x400, Kind: mem.Load}
		}
		hits, misses := runSeq(NewLRU(), 4, 4, accs)
		wantHits, wantMisses := simulateLRUOffline(addrs, 4, 4)
		return hits == wantHits && misses == wantMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// Interleave a reused working set with a one-time scan. SRRIP
	// should keep more of the working set than LRU.
	var accs []cache.AccessInfo
	scan := uint64(1000)
	for p := 0; p < 60; p++ {
		// Hot blocks are touched twice so they earn near-immediate
		// re-reference predictions before the scan arrives.
		for r := 0; r < 2; r++ {
			for b := 0; b < 2; b++ {
				accs = append(accs, cache.AccessInfo{Addr: mem.Addr(uint64(b*16) << mem.BlockBits), PC: 1, Kind: mem.Load})
			}
		}
		for s := 0; s < 3; s++ {
			accs = append(accs, cache.AccessInfo{Addr: mem.Addr((scan * 16) << mem.BlockBits), PC: 2, Kind: mem.Load})
			scan++
		}
	}
	lruHits, _ := runSeq(NewLRU(), 16, 4, accs)
	srripHits, _ := runSeq(NewSRRIP(), 16, 4, accs)
	if srripHits <= lruHits {
		t.Fatalf("SRRIP (%d hits) should beat LRU (%d hits) under scanning", srripHits, lruHits)
	}
}

func TestRRIPVictimAging(t *testing.T) {
	p := NewSRRIP()
	p.Init(1, 4)
	info := cache.AccessInfo{Kind: mem.Load}
	// Fill all ways: RRPV = 2 each.
	for w := 0; w < 4; w++ {
		p.OnFill(0, w, info)
	}
	// Victim search must age RRPVs until one saturates, then pick it.
	v := p.Victim(0, info)
	if v != 0 {
		t.Fatalf("victim = %d, want leftmost after uniform aging", v)
	}
	if p.rrpv[3] != maxRRPV {
		t.Fatal("aging should have advanced all RRPVs to max")
	}
}

func TestSHiPLearnsDeadPC(t *testing.T) {
	// PC 0xdead streams blocks that are never reused; PC 0xbeef has a
	// hot working set. After training, SHiP++ should beat LRU.
	var accs []cache.AccessInfo
	stream := uint64(5000)
	for p := 0; p < 120; p++ {
		for r := 0; r < 2; r++ {
			for b := 0; b < 2; b++ {
				accs = append(accs, cache.AccessInfo{Addr: mem.Addr(uint64(b*16) << mem.BlockBits), PC: 0xbeef, Kind: mem.Load})
			}
		}
		for s := 0; s < 3; s++ {
			accs = append(accs, cache.AccessInfo{Addr: mem.Addr((stream * 16) << mem.BlockBits), PC: 0xdead, Kind: mem.Load})
			stream++
		}
	}
	lruHits, _ := runSeq(NewLRU(), 16, 4, accs)
	shipHits, _ := runSeq(NewSHiPPP(), 16, 4, accs)
	if shipHits <= lruHits {
		t.Fatalf("SHiP++ (%d) should beat LRU (%d) with a dead streaming PC", shipHits, lruHits)
	}
}

func TestSHiPPPWritebackInsertion(t *testing.T) {
	p := NewSHiPPP()
	p.Init(4, 4)
	p.OnFill(0, 1, cache.AccessInfo{Kind: mem.Writeback})
	if p.rrpv[1] != maxRRPV {
		t.Fatal("writeback fills must be inserted distant")
	}
	// Writeback blocks never train the SHCT on eviction.
	before := p.shct[0]
	p.OnEvict(0, 1, cache.AccessInfo{})
	if p.shct[0] != before {
		t.Fatal("writeback eviction must not train")
	}
}

func TestSHiPPPPrefetchDemotion(t *testing.T) {
	p := NewSHiPPP()
	p.Init(4, 4)
	p.OnFill(0, 0, cache.AccessInfo{PC: 0x1, Kind: mem.Prefetch})
	// First demand hit on a prefetched block demotes it.
	p.OnHit(0, 0, cache.AccessInfo{PC: 0x1, Kind: mem.Load, HitPrefetched: true})
	if p.rrpv[0] != maxRRPV {
		t.Fatalf("first demand touch of prefetched block should demote, rrpv=%d", p.rrpv[0])
	}
	// Subsequent demand hit promotes normally.
	p.OnHit(0, 0, cache.AccessInfo{PC: 0x1, Kind: mem.Load})
	if p.rrpv[0] != 0 {
		t.Fatal("later demand hits should promote")
	}
	// Pure prefetch hits change nothing.
	p.rrpv[0] = 2
	p.OnHit(0, 0, cache.AccessInfo{PC: 0x1, Kind: mem.Prefetch})
	if p.rrpv[0] != 2 {
		t.Fatal("prefetch hits must not promote")
	}
}

func TestOptgenBasics(t *testing.T) {
	og := newOptgen(2) // 2 ways → window 16
	// Two interleaved blocks reuse within capacity: both cacheable.
	first := og.now
	og.advance()
	second := og.now
	og.advance()
	if !og.shouldCache(first) {
		t.Fatal("first interval fits")
	}
	if !og.shouldCache(second) {
		t.Fatal("second interval fits")
	}
	// A third overlapping interval exceeds 2 ways.
	if og.shouldCache(first) {
		t.Fatal("third overlapping interval must not fit in 2 ways")
	}
}

func TestOptgenWindowExpiry(t *testing.T) {
	og := newOptgen(2)
	start := og.now
	for i := 0; i < 100; i++ {
		og.advance()
	}
	if og.shouldCache(start) {
		t.Fatal("intervals beyond the window are uncacheable")
	}
}

// Mockingjay should approach OPT-like behaviour on a PC-stable
// pattern: one PC with short reuse, another streaming.
func TestMockingjayLearnsReuseDistance(t *testing.T) {
	var accs []cache.AccessInfo
	stream := uint64(9000)
	for p := 0; p < 150; p++ {
		for b := 0; b < 3; b++ {
			accs = append(accs, cache.AccessInfo{Addr: mem.Addr(uint64(b*16) << mem.BlockBits), PC: 0x10, Kind: mem.Load})
		}
		for s := 0; s < 3; s++ {
			accs = append(accs, cache.AccessInfo{Addr: mem.Addr((stream * 16) << mem.BlockBits), PC: 0x20, Kind: mem.Load})
			stream++
		}
	}
	lruHits, _ := runSeq(NewLRU(), 16, 4, accs)
	mjHits, _ := runSeq(NewMockingjay(), 16, 4, accs)
	if mjHits <= lruHits {
		t.Fatalf("Mockingjay (%d) should beat LRU (%d) on scan+reuse mix", mjHits, lruHits)
	}
}

func TestGliderLearnsDeadPC(t *testing.T) {
	var accs []cache.AccessInfo
	stream := uint64(7000)
	for p := 0; p < 200; p++ {
		for b := 0; b < 3; b++ {
			accs = append(accs, cache.AccessInfo{Addr: mem.Addr(uint64(b*16) << mem.BlockBits), PC: 0x30, Kind: mem.Load})
		}
		for s := 0; s < 3; s++ {
			accs = append(accs, cache.AccessInfo{Addr: mem.Addr((stream * 16) << mem.BlockBits), PC: 0x40, Kind: mem.Load})
			stream++
		}
	}
	lruHits, _ := runSeq(NewLRU(), 16, 4, accs)
	gliderHits, _ := runSeq(NewGlider(1), 16, 4, accs)
	if gliderHits <= lruHits {
		t.Fatalf("Glider (%d) should beat LRU (%d) on scan+reuse mix", gliderHits, lruHits)
	}
}

func TestHawkeyeLearnsDeadPC(t *testing.T) {
	var accs []cache.AccessInfo
	stream := uint64(11000)
	for p := 0; p < 200; p++ {
		for b := 0; b < 3; b++ {
			accs = append(accs, cache.AccessInfo{Addr: mem.Addr(uint64(b*16) << mem.BlockBits), PC: 0x50, Kind: mem.Load})
		}
		for s := 0; s < 3; s++ {
			accs = append(accs, cache.AccessInfo{Addr: mem.Addr((stream * 16) << mem.BlockBits), PC: 0x60, Kind: mem.Load})
			stream++
		}
	}
	lruHits, _ := runSeq(NewLRU(), 16, 4, accs)
	hawkHits, _ := runSeq(NewHawkeye(), 16, 4, accs)
	if hawkHits <= lruHits {
		t.Fatalf("Hawkeye (%d) should beat LRU (%d) on scan+reuse mix", hawkHits, lruHits)
	}
}
