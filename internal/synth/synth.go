// Package synth generates the synthetic stand-ins for the paper's
// SPEC CPU2006/2017 SimPoint traces (see DESIGN.md, substitution 1).
//
// Each named workload is a deterministic, seeded mixture of access
// engines, each owning a handful of PCs and an address region:
//
//   - stream:  sequential block-by-block reads over a huge region —
//     prefetch-friendly, high MLP, little reuse (libquantum, lbm);
//   - stride:  fixed-stride sweeps (bwaves, GemsFDTD);
//   - gather:  independent random accesses over a large region — high
//     MLP misses that overlap each other (mcf's refresh loops);
//   - chase:   pointer chasing (DependsPrev) — isolated, expensive
//     misses that PMC flags as costly (mcf, astar, xalancbmk);
//   - hot:     a small, hit-heavy working set — generates the base
//     access cycles that hide concurrent misses (everything);
//   - thrash:  a cyclic working set slightly larger than the LLC
//     (sphinx3, soplex).
//
// The engine a PC belongs to never changes, so per-PC behaviour is
// stable — the property (§IV-E) that makes PMC and re-reference
// prediction learnable.
package synth

import (
	"fmt"
	"sort"

	"care/internal/checkpoint"
	"care/internal/mem"
	"care/internal/trace"
)

// engineKind enumerates the access engines.
type engineKind int

const (
	engStream engineKind = iota
	engStride
	engGather
	engChase
	engHot
	engThrash
	// engResident is the LLC-resident working set: too big for the
	// L2, small enough that the LLC retains it. It produces the LLC
	// *hit* traffic whose base access cycles hide concurrent misses —
	// the raw material of hit-miss overlapping (§III-B) — and the
	// reuse that locality-based policies compete to protect.
	engResident
)

const numEngines = 7

// Profile parameterises one synthetic workload.
type Profile struct {
	// Name is the benchmark label (e.g. "429.mcf").
	Name string
	// Suite tags the origin ("SPEC06", "SPEC17").
	Suite string
	// Weights gives the relative probability of each engine per
	// memory access, in engineKind order (stream, stride, gather,
	// chase, hot, thrash, resident).
	Weights [numEngines]int
	// NonMemMean is the average number of non-memory instructions
	// between memory accesses (controls memory intensity).
	NonMemMean int
	// WritePct is the percentage of demand accesses that are stores.
	WritePct int
	// HotKB, ThrashKB, ResidentKB, BigMB size the hot set, the
	// thrashing set, the LLC-resident set, and the large regions
	// (stream/gather).
	HotKB, ThrashKB, ResidentKB, BigMB int
	// ChaseKB sizes the pointer-chasing region. Real chasers (mcf,
	// omnetpp) walk a bounded arena repeatedly, so chased blocks have
	// *moderate* reuse — which is what makes the cost prediction, not
	// just the reuse prediction, decide their fate (Table IV). 0
	// falls back to the big region (reuse-free chasing).
	ChaseKB int
	// StrideBlocks is the stride engine's step in blocks.
	StrideBlocks int
	// PhaseLen is the number of memory accesses per execution phase
	// (0 = default). Real programs run in phases where a couple of
	// access patterns dominate; within a phase two engines are
	// boosted. Phases are what give different PCs different
	// *concurrency* contexts — a pointer chase running beside an
	// LLC-resident loop has its miss latency hidden (low PMC, high
	// MLP cost), the same chase running beside a gather burst does
	// not — which is exactly the distinction PMC captures and
	// MLP-based cost misses (paper §III-B).
	PhaseLen int
}

// engine holds the runtime state of one access engine.
type engine struct {
	kind engineKind
	pcs  []mem.Addr
	base mem.Addr
	size uint64 // bytes
	// cursors is per-PC for stream/stride engines (each load PC owns
	// its own sequential walk, like an unrolled array loop — this is
	// what lets an IP-stride prefetcher train); index 0 is shared by
	// the other engines.
	cursors []uint64
	rng     uint64
	stride  uint64
}

func (e *engine) next64() uint64 {
	v := e.rng
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	e.rng = v
	return v
}

// gen produces the next access of this engine.
func (e *engine) gen() (pc, addr mem.Addr, depends bool) {
	i := int(e.next64() % uint64(len(e.pcs)))
	pc = e.pcs[i]
	switch e.kind {
	case engStream:
		addr = e.base + mem.Addr(e.cursors[i])
		e.cursors[i] = (e.cursors[i] + mem.BlockSize) % e.size
	case engStride:
		addr = e.base + mem.Addr(e.cursors[i])
		e.cursors[i] = (e.cursors[i] + e.stride*mem.BlockSize) % e.size
	case engGather:
		addr = e.base + mem.Addr(e.next64()%e.size)
	case engChase:
		// The next address depends on the loaded value: serialised.
		addr = e.base + mem.Addr(e.next64()%e.size)
		depends = true
	case engHot:
		addr = e.base + mem.Addr(e.next64()%e.size)
	case engThrash:
		addr = e.base + mem.Addr(e.cursors[0])
		e.cursors[0] = (e.cursors[0] + mem.BlockSize) % e.size
	case engResident:
		addr = e.base + mem.Addr(e.next64()%e.size)
	}
	return pc, addr.Block() + mem.Addr(e.next64()%mem.BlockSize), depends
}

// Generator is a deterministic trace.Reader for one profile.
type Generator struct {
	profile Profile
	engines []*engine
	// base (profile) weights per engine, parallel to engines.
	weights []int
	// cum holds the current phase's cumulative weights, derived from
	// its two boosted engines (-1 for a single engine).
	cum            []int
	total          int
	boostA, boostB int
	// phase bookkeeping.
	phaseLen uint64
	phaseRNG uint64
	rng      uint64
	seed     uint64
	emitted  uint64
	// ident names the stream (profile and seed) in a checkpoint.
	ident string
}

var _ trace.Reader = (*Generator)(nil)
var _ trace.Resetter = (*Generator)(nil)

// NewGenerator builds the workload generator for a profile with a
// seed (different seeds model different trace segments / multi-copy
// offsets).
func NewGenerator(p Profile, seed uint64) *Generator {
	g := &Generator{profile: p, seed: seed, ident: fmt.Sprintf("%s seed %d", p.Name, seed)}
	g.Reset()
	return g
}

// NewScaledGenerator divides the profile's footprints (hot set,
// thrashing set, big regions) by scale so workloads sized for the
// paper's full 2MB/core hierarchy keep the same *relative* pressure
// on a sim.ScaledConfig-shrunk hierarchy. Floors keep every engine
// meaningful: the hot set still fits the L2, the thrash set still
// straddles the LLC, and the big regions still exceed it.
func NewScaledGenerator(p Profile, seed uint64, scale int) *Generator {
	if scale > 1 {
		p.HotKB = max(p.HotKB/scale, 4)
		p.ThrashKB = max(p.ThrashKB/scale, 16)
		p.ResidentKB = max(p.ResidentKB/scale, 8)
		p.BigMB = max(p.BigMB/scale, 1)
	}
	return NewGenerator(p, seed)
}

// Reset implements trace.Resetter: restart the deterministic stream.
func (g *Generator) Reset() {
	p := g.profile
	g.rng = g.seed*2654435761 + 0x9e3779b97f4a7c15
	g.phaseRNG = g.seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	g.engines = g.engines[:0]
	g.weights = g.weights[:0]
	g.cum = g.cum[:0]
	g.total = 0
	g.emitted = 0
	g.phaseLen = uint64(p.PhaseLen)
	if g.phaseLen == 0 {
		g.phaseLen = 3000
	}

	mb := func(n int) uint64 { return uint64(n) << 20 }
	kb := func(n int) uint64 { return uint64(n) << 10 }
	// Regions are spread across a per-seed 1GB window so multi-copy
	// workloads do not share data (independent address spaces).
	window := mem.Addr((g.seed%64)<<32 + 1<<30)
	chaseSize := mb(max(p.BigMB, 1))
	if p.ChaseKB > 0 {
		chaseSize = kb(max(p.ChaseKB, 32))
	}
	sizes := map[engineKind]uint64{
		engStream:   mb(max(p.BigMB, 1)),
		engStride:   mb(max(p.BigMB, 1)),
		engGather:   mb(max(p.BigMB, 1)),
		engChase:    chaseSize,
		engHot:      kb(max(p.HotKB, 4)),
		engThrash:   kb(max(p.ThrashKB, 64)),
		engResident: kb(max(p.ResidentKB, 32)),
	}
	base := window
	for k := engStream; k < numEngines; k++ {
		w := p.Weights[k]
		if w <= 0 {
			continue
		}
		pcBase := mem.Addr(0x400000 + uint64(k)*0x1000 + hashName(p.Name)%0x100000)
		pcs := make([]mem.Addr, 4)
		for i := range pcs {
			pcs[i] = pcBase + mem.Addr(i*8)
		}
		stride := uint64(p.StrideBlocks)
		if stride == 0 {
			stride = 4
		}
		cursors := make([]uint64, len(pcs))
		for i := range cursors {
			// Each PC starts its walk in its own quarter of the
			// region so the streams do not trivially collide.
			cursors[i] = (uint64(i) * sizes[k] / uint64(len(pcs))) &^ (mem.BlockSize - 1)
		}
		g.engines = append(g.engines, &engine{
			kind:    k,
			pcs:     pcs,
			base:    base,
			size:    sizes[k],
			cursors: cursors,
			rng:     g.seed ^ uint64(k+1)*0x2545F4914F6CDD1D,
			stride:  stride,
		})
		base += mem.Addr(sizes[k] + mb(64))
		g.weights = append(g.weights, w)
		g.cum = append(g.cum, 0)
	}
	if len(g.weights) == 0 {
		panic(fmt.Sprintf("synth: profile %q has no engine weights", p.Name))
	}
	g.newPhase()
}

// newPhase re-weights the engines for the next execution phase: two
// engines are boosted so they dominate, the rest idle along at their
// base weights.
func (g *Generator) newPhase() {
	// Choose the dominating engines in proportion to their base
	// weights, so an engine that is rare overall stays rare: phases
	// re-mix a program's patterns, they don't invent new ones.
	pick := func(r uint64) int {
		base := 0
		for _, w := range g.weights {
			base += w
		}
		target := int(r % uint64(base))
		for i, w := range g.weights {
			target -= w
			if target < 0 {
				return i
			}
		}
		return len(g.weights) - 1
	}
	boostA, boostB := -1, -1
	if len(g.engines) > 1 {
		g.phaseRNG ^= g.phaseRNG << 13
		g.phaseRNG ^= g.phaseRNG >> 7
		g.phaseRNG ^= g.phaseRNG << 17
		boostA = pick(g.phaseRNG)
		boostB = pick(g.phaseRNG >> 32)
		// Pointer-chasing phases run inside the surrounding data
		// structure's traversal, so bias chase phases to co-run with
		// the LLC-resident working set. This is the concurrency
		// structure of the paper's Figure 2: serialised misses whose
		// latency hides under the resident set's LLC hits.
		chaseIdx, residentIdx := -1, -1
		for i, e := range g.engines {
			switch e.kind {
			case engChase:
				chaseIdx = i
			case engResident:
				residentIdx = i
			}
		}
		if chaseIdx >= 0 && residentIdx >= 0 &&
			(boostA == chaseIdx || boostB == chaseIdx) {
			boostA, boostB = chaseIdx, residentIdx
		}
	}
	g.boostA, g.boostB = boostA, boostB
	g.weigh()
}

// weigh derives the phase's cumulative weights from its boosts.
func (g *Generator) weigh() {
	g.total = 0
	for i, w := range g.weights {
		if i == g.boostA || i == g.boostB {
			w *= 6
		}
		g.total += w
		g.cum[i] = g.total
	}
}

// Checkpoint implements checkpoint.Component. The profile name and
// seed must match (ErrMismatch: another stream); a boosted engine or
// cursor out of range is ErrCorrupt.
func (g *Generator) Checkpoint(s *checkpoint.State) {
	s.Match(g.ident)
	for _, v := range []*uint64{&g.rng, &g.phaseRNG, &g.emitted} {
		checkpoint.Uint(s, v)
	}
	for _, b := range []*int{&g.boostA, &g.boostB} {
		checkpoint.Int(s, b)
		if s.Restoring() && s.Err() == nil && (*b < -1 || *b >= len(g.engines)) {
			s.Fail(fmt.Errorf("%w: boosted engine %d of %d", checkpoint.ErrCorrupt, *b, len(g.engines)))
		}
	}
	checkpoint.Each(s, g.engines, func(s *checkpoint.State, e **engine) {
		checkpoint.Uint(s, &(*e).rng)
		checkpoint.Table(s, (*e).cursors, func(s *checkpoint.State, cs []uint64) {
			checkpoint.Indexes(s, cs, int((*e).size), "cursor")
		})
	})
	if s.Restoring() && s.Err() == nil {
		g.weigh()
	}
}

func (g *Generator) next64() uint64 {
	v := g.rng
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	g.rng = v
	return v
}

// Next implements trace.Reader. The stream is unbounded; callers
// bound it by instruction budget.
func (g *Generator) Next() (trace.Record, error) {
	if g.emitted > 0 && g.emitted%g.phaseLen == 0 {
		g.newPhase()
	}
	pick := int(g.next64() % uint64(g.total))
	idx := sort.SearchInts(g.cum, pick+1)
	e := g.engines[idx]
	pc, addr, depends := e.gen()

	nonMem := uint16(0)
	if m := g.profile.NonMemMean; m > 0 {
		// Geometric-ish jitter around the mean keeps dispatch bursts
		// irregular without losing determinism.
		nonMem = uint16(g.next64() % uint64(2*m+1))
	}
	isWrite := int(g.next64()%100) < g.profile.WritePct && !depends
	g.emitted++
	return trace.Record{
		PC:          pc,
		Addr:        addr,
		IsWrite:     isWrite,
		DependsPrev: depends,
		NonMem:      nonMem,
	}, nil
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
