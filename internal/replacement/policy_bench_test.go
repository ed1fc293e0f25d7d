package replacement_test

import (
	"testing"

	"care/internal/cache"
	careplc "care/internal/core/care"
	"care/internal/mem"
	"care/internal/policy"
	"care/internal/sim"
)

// TestPolicyAllocs: once warm, a policy's per-access callbacks do not
// allocate. Each policy runs a fixed stream over a small tag array
// four times to warm up, then AllocsPerRun counts whole passes. With
// 64 sets every set is sampled, and each pass brings each set about
// 200 new tags, so the samplers' tag lists (Hawkeye, Glider,
// Mockingjay) overflow and drop their oldest tag on most misses.
func TestPolicyAllocs(t *testing.T) {
	const sets, ways = 64, 16
	stream := policyStream(sets*ways, 1<<15)
	for _, name := range policy.All() {
		p, err := policy.New(name, 4, careplc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		llc := newTagArray(p, sets, ways)
		pass := func() {
			for i := range stream {
				llc.access(stream[i])
			}
		}
		for i := 0; i < 4; i++ {
			pass()
		}
		if got := testing.AllocsPerRun(20, pass); got != 0 {
			t.Errorf("%s: %v allocations per pass of %d accesses, want 0", name, got, len(stream))
		}
	}
}

// BenchmarkPolicy times each LLC replacement policy's own per-access
// cost, apart from the cache around it: the paper's "lightweight"
// claim, CARE's cost against SHiP++'s (Table VI). Each access of a
// fixed stream goes to a bare tag array of the paper's 4-core LLC
// geometry. A hit calls OnHit; a miss calls Victim, OnEvict and
// OnFill. The stream runs once before timing, so the array is full,
// every miss evicts and the predictors are trained. One op is one
// access, so ns/op is ns per access.
func BenchmarkPolicy(b *testing.B) {
	geom := sim.ScaledConfig(4, 1).LLC
	stream := policyStream(geom.Sets*geom.Ways, 1<<20)
	for _, name := range policy.All() {
		b.Run(string(name), func(b *testing.B) {
			p, err := policy.New(name, 4, careplc.Config{})
			if err != nil {
				b.Fatal(err)
			}
			llc := newTagArray(p, geom.Sets, geom.Ways)
			for i := range stream {
				llc.access(stream[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				llc.access(stream[i&(len(stream)-1)])
			}
		})
	}
}

// policyStream returns n accesses (a power of two) from four cores
// and 32 PCs. 60% reuse a hot region half the LLC's size, so they
// mostly hit; the rest scan blocks that do not repeat within the
// stream, so they miss. Each PC has a fixed miss cost, low for the
// scanning PCs, so cost-aware policies see both classes.
func policyStream(blocks, n int) []cache.AccessInfo {
	out := make([]cache.AccessInfo, n)
	x := uint64(0x9e3779b97f4a7c15)
	scan := uint64(blocks)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc := x >> 59 // 32 PCs
		var blk uint64
		if x%10 < 6 {
			blk = (x >> 20) % uint64(blocks/2)
			pc &^= 1
		} else {
			blk = scan
			scan++
			pc |= 1
		}
		cost := float64(20 + 40*(pc%8))
		if pc&1 == 1 {
			cost = 5
		}
		out[i] = cache.AccessInfo{
			PC:      mem.Addr(0x400000 + pc*64),
			Addr:    mem.Addr(blk << mem.BlockBits),
			Core:    int(pc % 4),
			Kind:    mem.Load,
			PMC:     cost,
			MLPCost: cost,
		}
	}
	return out
}

// tagArray is the smallest cache that drives a policy the way
// internal/cache does: it prefers an invalid way and otherwise asks
// the policy for a victim.
type tagArray struct {
	p    cache.Policy
	ways int
	mask uint64
	tags []uint64 // tag<<1|1 when valid, 0 when not
}

func newTagArray(p cache.Policy, sets, ways int) *tagArray {
	p.Init(sets, ways)
	return &tagArray{p: p, ways: ways, mask: uint64(sets - 1), tags: make([]uint64, sets*ways)}
}

func (t *tagArray) access(info cache.AccessInfo) {
	want := info.Addr.BlockID()<<1 | 1
	set := int(info.Addr.BlockID() & t.mask)
	ways := t.tags[set*t.ways : (set+1)*t.ways]
	victim := -1
	for w, tag := range ways {
		if tag == 0 {
			if victim < 0 {
				victim = w
			}
			continue
		}
		if tag == want {
			t.p.OnHit(set, w, info)
			return
		}
	}
	if victim < 0 {
		victim = t.p.Victim(set, info)
		t.p.OnEvict(set, victim, info)
	}
	ways[victim] = want
	t.p.OnFill(set, victim, info)
}
