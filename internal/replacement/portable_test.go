package replacement_test

import (
	"testing"

	"care/internal/cache"
	_ "care/internal/core/care" // registers care and m-care
	"care/internal/mem"
	"care/internal/policy"
	"care/internal/replacement"
)

// portableOp is one access of the stream TestPortablePoliciesIgnore-
// BlockContents replays: a key and what the host does with it.
type portableOp struct {
	acc replacement.Access
	del bool
}

// portableStream returns a seeded stream over 4× as many keys as a
// sets×ways cache holds, a quarter of them hot, with writes, deletes
// and per-key costs that straddle CARE's PMC thresholds.
func portableStream(n, sets, ways int) []portableOp {
	out := make([]portableOp, n)
	keys := uint64(4 * sets * ways)
	x := uint64(0x2545f4914f6cdd1d)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := (x >> 8) % keys
		if x%3 != 0 {
			k %= keys / 4
		}
		out[i] = portableOp{
			acc: replacement.Access{Sig: k * 0x9e3779b97f4a7c15, Block: k, Write: x%5 == 0, Cost: float64(k % 400)},
			del: x%16 == 0,
		}
	}
	return out
}

// portableHost is a sets×ways tag array that drives a policy for one
// stream: a hit calls OnHit, a delete OnEvict and frees the way, and
// a miss fills a free way or evicts the policy's victim. The callbacks
// say how the policy is reached; run returns the victims' flat slots.
type portableHost struct {
	ways  int
	valid []bool
	tags  []uint64
}

func (h *portableHost) run(stream []portableOp, sets int,
	hit, evict, fill func(set, way int, op portableOp), victim func(set int, op portableOp) int) []int {
	var victims []int
	for _, op := range stream {
		set := int(op.acc.Block % uint64(sets))
		base := set * h.ways
		way, free := -1, -1
		for w := 0; w < h.ways; w++ {
			if !h.valid[base+w] {
				if free < 0 {
					free = w
				}
			} else if h.tags[base+w] == op.acc.Block {
				way = w
			}
		}
		switch {
		case way >= 0 && op.del:
			evict(set, way, op)
			h.valid[base+way] = false
		case way >= 0:
			hit(set, way, op)
		case op.del:
		default:
			if way = free; way < 0 {
				way = victim(set, op)
				victims = append(victims, base+way)
				evict(set, way, op)
			}
			h.valid[base+way], h.tags[base+way] = true, op.acc.Block
			fill(set, way, op)
		}
	}
	return victims
}

// TestPortablePoliciesIgnoreBlockContents pins what lets
// replacement.Adapter hand every call one shared row of zero Blocks:
// a portable policy reads nothing of the Blocks it is given but their
// number. Each portable policy runs one seeded stream twice, once
// called directly with Block rows filled the way internal/cache fills
// them (valid, tag, core, PC, dirty on a write) and once through an
// Adapter, and must choose the same victims.
func TestPortablePoliciesIgnoreBlockContents(t *testing.T) {
	const sets, ways = 32, 8
	stream := portableStream(40000, sets, ways)
	newHost := func() *portableHost {
		return &portableHost{ways: ways, valid: make([]bool, sets*ways), tags: make([]uint64, sets*ways)}
	}
	for _, name := range policy.Portable() {
		t.Run(string(name), func(t *testing.T) {
			// Simulator-style: the policy sees live Block rows.
			p, err := replacement.New(string(name), 1)
			if err != nil {
				t.Fatal(err)
			}
			p.Init(sets, ways)
			blocks := make([]cache.Block, sets*ways)
			row := func(set int) []cache.Block { return blocks[set*ways : (set+1)*ways] }
			info := func(acc replacement.Access) cache.AccessInfo {
				kind := mem.Load
				if acc.Write {
					kind = mem.Store
				}
				return cache.AccessInfo{PC: mem.Addr(acc.Sig), Addr: mem.Addr(acc.Block << mem.BlockBits),
					Kind: kind, PMC: acc.Cost, MLPCost: acc.Cost}
			}
			direct := newHost().run(stream, sets,
				func(set, way int, op portableOp) {
					if op.acc.Write {
						row(set)[way].Dirty = true
					}
					p.OnHit(set, way, row(set), info(op.acc))
				},
				func(set, way int, op portableOp) {
					p.OnEvict(set, way, row(set)[way], info(op.acc))
					row(set)[way] = cache.Block{}
				},
				func(set, way int, op portableOp) {
					row(set)[way] = cache.Block{Valid: true, Tag: op.acc.Block, Core: int(op.acc.Block % 4),
						PC: mem.Addr(op.acc.Sig), Dirty: op.acc.Write}
					p.OnFill(set, way, row(set), info(op.acc))
				},
				func(set int, op portableOp) int { return p.Victim(set, row(set), info(op.acc)) })

			// Through the Adapter: the policy sees zero Blocks.
			ad, err := replacement.NewAdapterByName(string(name), sets, ways)
			if err != nil {
				t.Fatal(err)
			}
			adapted := newHost().run(stream, sets,
				func(set, way int, op portableOp) { ad.OnHit(set, way, op.acc) },
				func(set, way int, op portableOp) { ad.OnEvict(set, way, op.acc) },
				func(set, way int, op portableOp) { ad.OnFill(set, way, op.acc) },
				func(set int, op portableOp) int { return ad.Victim(set, op.acc) })

			if len(direct) < 1000 {
				t.Fatalf("only %d evictions; the stream does not exercise Victim", len(direct))
			}
			if len(direct) != len(adapted) {
				t.Fatalf("%d victims with Block rows, %d through the Adapter", len(direct), len(adapted))
			}
			for i := range direct {
				if direct[i] != adapted[i] {
					t.Fatalf("victim %d: slot %d with Block rows, slot %d through the Adapter", i, direct[i], adapted[i])
				}
			}
		})
	}
}
