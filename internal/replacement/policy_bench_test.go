package replacement_test

import (
	"testing"

	"care/internal/cache"
	_ "care/internal/core/care" // registers care and m-care
	"care/internal/mem"
	"care/internal/replacement"
	"care/internal/sim"
)

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
	stream := policyStream(geom.Sets * geom.Ways)
	for _, name := range replacement.Names() {
		b.Run(name, func(b *testing.B) {
			p, err := replacement.New(name, 4)
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

// policyStream returns 2^20 accesses from four cores and 32 PCs. 60%
// reuse a hot region half the LLC's size, so they mostly hit; the rest
// scan blocks that do not repeat within the stream, so they miss. Each
// PC has a fixed miss cost, low for the scanning PCs, so cost-aware
// policies see both classes.
func policyStream(blocks int) []cache.AccessInfo {
	out := make([]cache.AccessInfo, 1<<20)
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
			PC:          mem.Addr(0x400000 + pc*64),
			Addr:        mem.Addr(blk << mem.BlockBits),
			Core:        int(pc % 4),
			Kind:        mem.Load,
			PMC:         cost,
			MLPCost:     cost,
			MissLatency: uint64(cost) + 100,
		}
	}
	return out
}

// tagArray is the smallest cache that drives a policy the way
// internal/cache does: it prefers an invalid way and otherwise asks
// the policy for a victim.
type tagArray struct {
	p      cache.Policy
	ways   int
	mask   uint64
	blocks []cache.Block
	cycle  uint64
}

func newTagArray(p cache.Policy, sets, ways int) *tagArray {
	p.Init(sets, ways)
	return &tagArray{p: p, ways: ways, mask: uint64(sets - 1), blocks: make([]cache.Block, sets*ways)}
}

func (t *tagArray) access(info cache.AccessInfo) {
	t.cycle += 4
	info.Cycle = t.cycle
	tag := info.Addr.BlockID()
	set := int(tag & t.mask)
	ways := t.blocks[set*t.ways : (set+1)*t.ways]
	victim := -1
	for w := range ways {
		if !ways[w].Valid {
			if victim < 0 {
				victim = w
			}
			continue
		}
		if ways[w].Tag == tag {
			ways[w].Reused = true
			ways[w].LastTouch = t.cycle
			t.p.OnHit(set, w, ways, info)
			return
		}
	}
	if victim < 0 {
		victim = t.p.Victim(set, ways, info)
		t.p.OnEvict(set, victim, ways[victim], info)
	}
	ways[victim] = cache.Block{
		Valid: true, Tag: tag, Core: info.Core, PC: info.PC, PMC: info.PMC,
		MLPCost: info.MLPCost, FillCycle: t.cycle, LastTouch: t.cycle,
	}
	t.p.OnFill(set, victim, ways, info)
}
