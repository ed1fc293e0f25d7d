package care

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"care/internal/cache"
	"care/internal/mem"
	"care/internal/replacement"
)

func newPolicy(t *testing.T, sets, ways int) *Policy {
	t.Helper()
	p := New(Config{Seed: 1})
	p.Init(sets, ways)
	return p
}

func fillInfo(pc mem.Addr, kind mem.Kind, pmc float64) cache.AccessInfo {
	return cache.AccessInfo{PC: pc, Kind: kind, PMC: pmc}
}

func TestQuantizePMCS(t *testing.T) {
	p := newPolicy(t, 16, 4)
	cases := map[float64]uint8{
		0:    0,
		49.9: 0,
		50:   1, // not strictly below low
		200:  1,
		350:  1, // not strictly above high
		351:  3,
		1e6:  3,
	}
	for cost, want := range cases {
		if got := p.quantizePMCS(cost); got != want {
			t.Errorf("quantizePMCS(%v) = %d, want %d", cost, got, want)
		}
	}
}

func TestInsertionTableIV(t *testing.T) {
	p := newPolicy(t, 16, 4)
	pc := mem.Addr(0x400100)
	sig := replacement.Signature(pc, false)

	// High-Reuse → EPV 0.
	p.sht[sig] = shtEntry{rc: rcMax, pd: 3}
	p.OnFill(0, 0, fillInfo(pc, mem.Load, 100))
	if p.state[0]&epvMask != 0 {
		t.Fatalf("High-Reuse insertion EPV = %d, want 0", p.state[0]&epvMask)
	}
	// Low-Reuse → EPV 3.
	p.sht[sig] = shtEntry{rc: 0, pd: 3}
	p.OnFill(0, 1, fillInfo(pc, mem.Load, 100))
	if p.state[1]&epvMask != epvMax {
		t.Fatalf("Low-Reuse insertion EPV = %d, want 3", p.state[1]&epvMask)
	}
	// Moderate-Reuse + Low-Cost → EPV 3.
	p.sht[sig] = shtEntry{rc: 3, pd: 0}
	p.OnFill(0, 2, fillInfo(pc, mem.Load, 100))
	if p.state[2]&epvMask != epvMax {
		t.Fatalf("Moderate/Low-Cost insertion EPV = %d, want 3", p.state[2]&epvMask)
	}
	// Moderate-Reuse + High-Cost → EPV 0.
	p.sht[sig] = shtEntry{rc: 3, pd: pdMax}
	p.OnFill(0, 3, fillInfo(pc, mem.Load, 100))
	if p.state[3]&epvMask != 0 {
		t.Fatalf("Moderate/High-Cost insertion EPV = %d, want 0", p.state[3]&epvMask)
	}
	// Moderate-Reuse + Moderate-Cost → EPV 2.
	p.sht[sig] = shtEntry{rc: 3, pd: 3}
	p.OnFill(1, 0, fillInfo(pc, mem.Load, 100))
	if p.state[p.ways]&epvMask != 2 {
		t.Fatalf("Moderate/Moderate insertion EPV = %d, want 2", p.state[p.ways]&epvMask)
	}
}

func TestHitPromotionTableIV(t *testing.T) {
	p := newPolicy(t, 16, 4)
	pc := mem.Addr(0x400200)
	sig := replacement.Signature(pc, false)

	// Moderate-Reuse hit → EPV 0.
	p.sht[sig] = shtEntry{rc: 3, pd: 3}
	p.OnFill(0, 0, fillInfo(pc, mem.Load, 100))
	p.state[0] = 2
	p.OnHit(0, 0, fillInfo(pc, mem.Load, 0))
	if p.state[0]&epvMask != 0 {
		t.Fatalf("Moderate-Reuse hit EPV = %d, want 0", p.state[0]&epvMask)
	}

	// Low-Reuse hit → EPV decremented, not reset.
	p.sht[sig] = shtEntry{rc: 0, pd: 3}
	p.OnFill(0, 1, fillInfo(pc, mem.Load, 100))
	if p.state[1]&epvMask != epvMax {
		t.Fatal("setup: low-reuse fill should be EPV 3")
	}
	p.OnHit(0, 1, fillInfo(pc, mem.Load, 0))
	if p.state[1]&epvMask != epvMax-1 {
		t.Fatalf("Low-Reuse hit EPV = %d, want %d", p.state[1]&epvMask, epvMax-1)
	}
	// Decrements saturate at 0.
	p.state[1] = 0
	p.OnHit(0, 1, fillInfo(pc, mem.Load, 0))
	if p.state[1]&epvMask != 0 {
		t.Fatal("EPV decrement must saturate at 0")
	}
}

func TestPrefetchRules(t *testing.T) {
	p := newPolicy(t, 16, 4)
	pc := mem.Addr(0x400300)

	// Prefetch fill, then first demand hit: EPV jumps to 3.
	p.OnFill(0, 0, fillInfo(pc, mem.Prefetch, 100))
	if p.state[0]&prefetchedBit == 0 {
		t.Fatal("prefetch fill should be marked prefetched")
	}
	p.OnHit(0, 0, fillInfo(pc, mem.Load, 0))
	if p.state[0]&epvMask != epvMax {
		t.Fatalf("first demand touch of prefetched block EPV = %d, want 3", p.state[0]&epvMask)
	}
	if p.state[0]&prefetchedBit != 0 {
		t.Fatal("demand touch should clear prefetched state")
	}
	// Subsequent demand hit: normal promotion (EPV 0 for non-low-reuse).
	p.OnHit(0, 0, fillInfo(pc, mem.Load, 0))
	if p.state[0]&epvMask != 0 {
		t.Fatalf("subsequent demand hit EPV = %d, want 0", p.state[0]&epvMask)
	}

	// Prefetched block re-referenced only by prefetches: EPV frozen.
	p.OnFill(0, 1, fillInfo(pc, mem.Prefetch, 100))
	before := p.state[1]
	p.OnHit(0, 1, fillInfo(pc, mem.Prefetch, 0))
	if p.state[1] != before || p.state[1]&prefetchedBit == 0 {
		t.Fatal("prefetch-only re-reference must not change EPV or state")
	}
}

func TestWritebackRules(t *testing.T) {
	p := newPolicy(t, 16, 4)
	p.OnFill(0, 0, cache.AccessInfo{Kind: mem.Writeback})
	if p.state[0]&epvMask != epvMax {
		t.Fatal("writebacks insert at EPV 3")
	}
	// Writeback hit: no promotion.
	p.state[0] = 2
	p.OnHit(0, 0, cache.AccessInfo{Kind: mem.Writeback})
	if p.state[0]&epvMask != 2 {
		t.Fatal("writeback hits must not promote")
	}
	// Eviction of a writeback block must not train the SHT.
	sig := replacement.Signature(0, false)
	rcBefore := p.sht[sig].rc
	p.OnEvict(0, 0, cache.AccessInfo{})
	if p.sht[sig].rc != rcBefore {
		t.Fatal("writeback eviction must not train RC")
	}
}

func TestSHTTrainingOnHitAndEvict(t *testing.T) {
	p := newPolicy(t, 16, 4) // 16 sets, 64 wanted samples → all sampled
	pc := mem.Addr(0x400400)
	sig := replacement.Signature(pc, false)

	p.sht[sig] = shtEntry{rc: 3, pd: 3}
	p.OnFill(0, 0, fillInfo(pc, mem.Load, 1000)) // PMCS 3 (high)
	// First hit: RC increments once only.
	p.OnHit(0, 0, fillInfo(pc, mem.Load, 0))
	if p.sht[sig].rc != 4 {
		t.Fatalf("RC after first re-reference = %d, want 4", p.sht[sig].rc)
	}
	p.OnHit(0, 0, fillInfo(pc, mem.Load, 0))
	if p.sht[sig].rc != 4 {
		t.Fatal("RC must only train on the first re-reference")
	}
	// Eviction of the reused, PMCS==3 block: RC unchanged, PD++.
	p.OnEvict(0, 0, cache.AccessInfo{})
	if p.sht[sig].rc != 4 {
		t.Fatal("reused block eviction must not decrement RC")
	}
	if p.sht[sig].pd != 4 {
		t.Fatalf("PD after costly-block eviction = %d, want 4", p.sht[sig].pd)
	}

	// Dead block (never reused) with PMCS 0: RC-- and PD--.
	p.sht[sig] = shtEntry{rc: 3, pd: 3}
	p.OnFill(0, 1, fillInfo(pc, mem.Load, 0)) // PMCS 0
	p.OnEvict(0, 1, cache.AccessInfo{})
	if p.sht[sig].rc != 2 {
		t.Fatalf("RC after dead eviction = %d, want 2", p.sht[sig].rc)
	}
	if p.sht[sig].pd != 2 {
		t.Fatalf("PD after cheap eviction = %d, want 2", p.sht[sig].pd)
	}
}

func TestVictimPicksEPV3AndAges(t *testing.T) {
	p := newPolicy(t, 4, 4)
	for w := 0; w < int(p.ways); w++ {
		p.state[w] = 1
	}
	p.state[2] = epvMax
	if v := p.Victim(0, cache.AccessInfo{}); v != 2 {
		t.Fatalf("victim = %d, want the EPV-3 block (2)", v)
	}
	// No EPV-3 block: ageing must raise everyone until one appears,
	// and must not touch a block's prefetched bit.
	for w := 0; w < int(p.ways); w++ {
		p.state[w] = 0
	}
	p.state[1] = prefetchedBit
	v := p.Victim(0, cache.AccessInfo{})
	if v < 0 || v >= 4 {
		t.Fatalf("victim out of range: %d", v)
	}
	for w := 0; w < int(p.ways); w++ {
		if p.state[w]&epvMask != epvMax {
			t.Fatalf("ageing should bring all EPVs to 3, way %d = %d", w, p.state[w]&epvMask)
		}
	}
	if p.state[1] != prefetchedBit|epvMax {
		t.Fatalf("ageing changed way 1's prefetched bit: state %#x", p.state[1])
	}
}

func TestVictimRandomTieBreakCoversCandidates(t *testing.T) {
	p := newPolicy(t, 4, 4)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		for w := 0; w < int(p.ways); w++ {
			p.state[w] = epvMax
		}
		seen[p.Victim(0, cache.AccessInfo{})] = true
	}
	if len(seen) < 3 {
		t.Fatalf("random tie-break should spread victims, saw %v", seen)
	}
}

func TestDTRMAdjustsThresholds(t *testing.T) {
	p := New(Config{DTRMPeriod: 100, Seed: 1})
	p.Init(16, 4)
	// Period of all-cheap misses: thresholds drop.
	low0, high0 := p.Thresholds()
	for i := 0; i < 100; i++ {
		p.OnFill(i%16, i%4, fillInfo(0x1, mem.Load, 0))
	}
	low1, high1 := p.Thresholds()
	if low1 != low0-dtrmLowStep || high1 != high0-dtrmHighStep {
		t.Fatalf("thresholds after cheap period = (%v,%v), want (%v,%v)",
			low1, high1, low0-dtrmLowStep, high0-dtrmHighStep)
	}
	// Period of all-costly misses: thresholds rise.
	for i := 0; i < 100; i++ {
		p.OnFill(i%16, i%4, fillInfo(0x1, mem.Load, 1e6))
	}
	low2, high2 := p.Thresholds()
	if low2 != low1+dtrmLowStep || high2 != high1+dtrmHighStep {
		t.Fatalf("thresholds after costly period = (%v,%v)", low2, high2)
	}
	if p.Stats().DTRMLowers != 1 || p.Stats().DTRMRaises != 1 {
		t.Fatalf("DTRM stats = %+v", p.Stats())
	}
}

func TestDTRMModerateShareHoldsSteady(t *testing.T) {
	p := New(Config{DTRMPeriod: 100, Seed: 1})
	p.Init(16, 4)
	low0, high0 := p.Thresholds()
	// 2% costly misses: inside [0.5%, 5%], no change.
	for i := 0; i < 100; i++ {
		cost := 0.0
		if i%50 == 0 {
			cost = 1e6
		}
		p.OnFill(i%16, i%4, fillInfo(0x1, mem.Load, cost))
	}
	low1, high1 := p.Thresholds()
	if low1 != low0 || high1 != high0 {
		t.Fatalf("moderate costly share should hold thresholds, got (%v,%v)", low1, high1)
	}
}

func TestDTRMDisable(t *testing.T) {
	p := New(Config{DTRMPeriod: 10, DisableDTRM: true, Seed: 1})
	p.Init(16, 4)
	low0, high0 := p.Thresholds()
	for i := 0; i < 200; i++ {
		p.OnFill(i%16, i%4, fillInfo(0x1, mem.Load, 0))
	}
	low1, high1 := p.Thresholds()
	if low1 != low0 || high1 != high0 {
		t.Fatal("DisableDTRM must freeze thresholds")
	}
}

func TestDTRMThresholdFloor(t *testing.T) {
	p := New(Config{DTRMPeriod: 10, Seed: 1})
	p.Init(16, 4)
	for i := 0; i < 10000; i++ {
		p.OnFill(i%16, i%4, fillInfo(0x1, mem.Load, 0))
	}
	low, high := p.Thresholds()
	if low < 0 {
		t.Fatalf("PMC_low must not go negative, got %v", low)
	}
	if high < low {
		t.Fatalf("PMC_high (%v) must stay above PMC_low (%v)", high, low)
	}
}

func TestMCAREUsesMLPCost(t *testing.T) {
	p := NewMCARE(Config{Seed: 1})
	p.Init(16, 4)
	pc := mem.Addr(0x400500)
	// PMC says costly, MLP says cheap: M-CARE must follow MLP.
	info := cache.AccessInfo{PC: pc, Kind: mem.Load, PMC: 1e6, MLPCost: 0}
	p.OnFill(0, 0, info)
	if p.train[0].pmcs != 0 {
		t.Fatalf("M-CARE PMCS = %d, want 0 (driven by MLPCost)", p.train[0].pmcs)
	}
	care := New(Config{Seed: 1})
	care.Init(16, 4)
	care.OnFill(0, 0, info)
	if care.train[0].pmcs != 3 {
		t.Fatalf("CARE PMCS = %d, want 3 (driven by PMC)", care.train[0].pmcs)
	}
}

func TestHardwareCostMatchesTableV(t *testing.T) {
	items := HardwareCost(PaperHWConfig())
	total := TotalKB(items, false)
	if math.Abs(total-26.64) > 0.05 {
		t.Fatalf("total hardware cost = %.3fKB, want ≈26.64KB", total)
	}
	conc := TotalKB(items, true)
	if math.Abs(conc-6.76) > 0.05 {
		t.Fatalf("concurrency-aware share = %.3fKB, want ≈6.76KB", conc)
	}
	// Spot-check rows against Table V.
	wantKB := map[string]float64{
		"EPV (2-bit/block)":                8,
		"prefetch (1-bit/block)":           4,
		"signature (14-bit/sampled block)": 1.75,
		"R (1-bit/sampled block)":          0.125,
		"PMCS (2-bit/sampled block)":       0.25,
		"RC (3-bit/SHT entry)":             6,
		"PD (3-bit/SHT entry)":             6,
		"lookup table (32-bit/entry)":      0.25,
		"PMC (32-bit/MSHR entry)":          0.25,
	}
	for _, it := range items {
		if want, ok := wantKB[it.Name]; ok {
			if math.Abs(it.KB()-want) > 1e-9 {
				t.Errorf("%s = %.4fKB, want %.4fKB", it.Name, it.KB(), want)
			}
		}
	}
}

// TestMetadataMatchesTableV checks that a Policy keeps the per-block
// metadata Table V budgets: one state byte (EPV and prefetch bit) for
// every block, and a training record (signature, R, PMCS) only for the
// blocks of the sampled sets. It checks the paper's LLC, whose 2048
// sets train 64, and the 4-set shard of a 2^10-entry care/cache split
// over 16 shards, whose every set trains.
func TestMetadataMatchesTableV(t *testing.T) {
	hw := PaperHWConfig()
	cases := []struct {
		name                string
		sets, ways, sampled int
	}{
		{"Table V", hw.CapacityBytes / hw.BlockBytes / hw.Ways, hw.Ways, hw.SampledSets},
		{"care/cache shard", 4, 16, 4},
	}
	if unsafe.Sizeof(trainRec{}) > 8 {
		t.Errorf("a training record is %d bytes, want at most 8", unsafe.Sizeof(trainRec{}))
	}
	for _, tc := range cases {
		p := New(Config{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.Init(tc.sets, tc.ways)
		runtime.ReadMemStats(&after)
		blocks, sampledBlocks := tc.sets*tc.ways, tc.sampled*tc.ways
		if len(p.state) != blocks || cap(p.state) != blocks {
			t.Errorf("%s: %d state bytes (cap %d), want one per block (%d)", tc.name, len(p.state), cap(p.state), blocks)
		}
		if len(p.train) != sampledBlocks || cap(p.train) != sampledBlocks {
			t.Errorf("%s: %d training records (cap %d), want one per sampled block (%d×%d)",
				tc.name, len(p.train), cap(p.train), tc.sampled, tc.ways)
		}
		// Init makes three allocations: the SHT, the state bytes and
		// the training records. Allow each a page of size-class
		// rounding.
		budget := uint64(unsafe.Sizeof(*p.sht)) + uint64(blocks) + uint64(sampledBlocks)*uint64(unsafe.Sizeof(trainRec{}))
		if got := after.TotalAlloc - before.TotalAlloc; got > budget+3*8192 {
			t.Errorf("%s: Init allocated %d bytes, want at most %d (+ rounding)", tc.name, got, budget)
		}
		runtime.KeepAlive(p)
	}
}

func TestCostComparisonTableVI(t *testing.T) {
	rows := CostComparison()
	if len(rows) != 7 {
		t.Fatalf("Table VI has 7 frameworks, got %d", len(rows))
	}
	var careRow *FrameworkCost
	for i := range rows {
		if rows[i].Framework == "CARE" {
			careRow = &rows[i]
		}
		// Glider must be the most expensive, as in the paper.
		if rows[i].Framework == "Glider" && rows[i].TotalKB < 60 {
			t.Error("Glider cost should be ≈61.6KB")
		}
	}
	if careRow == nil {
		t.Fatal("CARE missing from comparison")
	}
	if !careRow.UsesPC || !careRow.ConcurrencyAware {
		t.Fatal("CARE is PC-based and concurrency-aware")
	}
	if math.Abs(careRow.TotalKB-26.64) > 0.05 {
		t.Fatalf("CARE total = %.3f, want ≈26.64", careRow.TotalKB)
	}
}

func TestFormatCost(t *testing.T) {
	out := FormatCost(HardwareCost(PaperHWConfig()))
	if out == "" {
		t.Fatal("empty cost table")
	}
}

// Property-style check: EPV stays within [0,3] under arbitrary event
// interleavings.
func TestEPVStaysInRange(t *testing.T) {
	p := newPolicy(t, 8, 4)
	r := rng(7)
	for i := 0; i < 5000; i++ {
		set := int(r.next() % 8)
		way := int(r.next() % 4)
		pc := mem.Addr(r.next() % 16)
		switch r.next() % 4 {
		case 0:
			p.OnFill(set, way, fillInfo(pc, mem.Load, float64(r.next()%500)))
		case 1:
			p.OnHit(set, way, fillInfo(pc, mem.Load, 0))
		case 2:
			p.OnEvict(set, way, cache.AccessInfo{})
		case 3:
			p.Victim(set, cache.AccessInfo{})
		}
		for i, b := range p.state {
			if !validState(b) {
				t.Fatalf("state out of range at (%d,%d): %#x", i/4, i%4, b)
			}
		}
	}
}
