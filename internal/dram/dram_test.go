package dram

import (
	"testing"
	"testing/quick"

	"care/internal/mem"
)

// request builds a request whose completion calls done.
func request(addr mem.Addr, kind mem.Kind, done func(uint64)) *mem.Request {
	return &mem.Request{Addr: addr, Kind: kind, Owner: mem.CompleteFunc(func(_ uint32, cy uint64) { done(cy) })}
}

func drive(d *DRAM, upTo uint64) {
	for cy := uint64(0); cy <= upTo; cy++ {
		d.Tick(cy)
	}
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero channels should panic")
		}
	}()
	New(Params{})
}

func TestRowMissThenRowHitLatency(t *testing.T) {
	p := DefaultParams(1)
	d := New(p)
	var first, second uint64
	d.Access(request(0x0, mem.Load, func(cy uint64) { first = cy }), 0)
	drive(d, 1000)
	// First access to a closed bank: tRCD + tCAS + burst.
	want := p.TRCD + p.TCAS + p.BurstCycles
	if first != want {
		t.Fatalf("closed-bank access at %d, want %d", first, want)
	}
	// Same row again: tCAS + burst only.
	d2 := New(p)
	done := make([]uint64, 2)
	d2.Access(request(0x0, mem.Load, func(cy uint64) { done[0] = cy }), 0)
	for cy := uint64(0); cy <= 2000; cy++ {
		d2.Tick(cy)
		if cy == 500 {
			// Same bank (stride = channels*banks blocks), same row.
			d2.Access(request(mem.Addr(p.Channels*p.BanksPerChannel*mem.BlockSize), mem.Load, func(c uint64) { done[1] = c }), cy)
		}
	}
	second = done[1] - 500
	if wantHit := p.TCAS + p.BurstCycles; second != wantHit {
		t.Fatalf("row hit latency %d, want %d", second, wantHit)
	}
	if d2.Stats().RowHits != 1 || d2.Stats().RowMisses != 1 {
		t.Fatalf("row stats %+v", d2.Stats())
	}
}

func TestRowConflictLatency(t *testing.T) {
	p := DefaultParams(1)
	d := New(p)
	// Two different rows in the same bank, far apart in address space.
	rowStride := mem.Addr(uint64(p.RowBytes) * uint64(p.Channels) * uint64(p.BanksPerChannel))
	var d1, d2 uint64
	d.Access(request(0x0, mem.Load, func(cy uint64) { d1 = cy }), 0)
	drive(d, 2000)
	start := uint64(1000)
	for cy := uint64(0); cy <= 3000; cy++ {
		if cy == start {
			d.Access(request(rowStride, mem.Load, func(c uint64) { d2 = c }), cy)
		}
		d.Tick(cy)
	}
	if d1 == 0 || d2 == 0 {
		t.Fatal("accesses did not complete")
	}
	if got, want := d2-start, p.TRP+p.TRCD+p.TCAS+p.BurstCycles; got != want {
		t.Fatalf("row conflict latency %d, want %d", got, want)
	}
}

func TestBankContentionSerialises(t *testing.T) {
	p := DefaultParams(1)
	d := New(p)
	rowStride := mem.Addr(uint64(p.RowBytes) * uint64(p.Channels) * uint64(p.BanksPerChannel))
	var done [2]uint64
	// Same bank, different rows, issued the same cycle.
	d.Access(request(0, mem.Load, func(cy uint64) { done[0] = cy }), 0)
	d.Access(request(rowStride, mem.Load, func(cy uint64) { done[1] = cy }), 0)
	drive(d, 5000)
	if done[1] <= done[0] {
		t.Fatalf("second conflicting access should finish later: %v", done)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	p := DefaultParams(1)
	d := New(p)
	var done [2]uint64
	// Adjacent blocks map to different banks (block interleaving).
	d.Access(request(0, mem.Load, func(cy uint64) { done[0] = cy }), 0)
	d.Access(request(mem.BlockSize, mem.Load, func(cy uint64) { done[1] = cy }), 0)
	drive(d, 5000)
	// Bank access overlaps; only the bus serialises, so the second
	// finishes one burst later, not a full access later.
	if done[1]-done[0] != p.BurstCycles {
		t.Fatalf("bank-parallel accesses should be bus-limited: %v (burst=%d)", done, p.BurstCycles)
	}
}

func TestWritesArePostedButOccupyBank(t *testing.T) {
	p := DefaultParams(1)
	d := New(p)
	responded := false
	d.Access(request(0, mem.Writeback, func(uint64) { responded = true }), 0)
	if !responded {
		t.Fatal("write should respond immediately (posted)")
	}
	if d.Stats().Writes != 1 {
		t.Fatal("write not counted")
	}
	// A read right behind the write to the same bank waits for it.
	var done uint64
	d.Access(request(0, mem.Load, func(cy uint64) { done = cy }), 1)
	drive(d, 5000)
	if done <= p.TCAS {
		t.Fatalf("read should queue behind posted write, done=%d", done)
	}
}

func TestMeanReadLatency(t *testing.T) {
	d := New(DefaultParams(2))
	d.Access(&mem.Request{Addr: 0, Kind: mem.Load}, 0)
	drive(d, 1000)
	if d.Stats().MeanReadLatency() <= 0 {
		t.Fatal("mean read latency should be positive")
	}
	var empty Stats
	if empty.MeanReadLatency() != 0 {
		t.Fatal("zero reads must not divide by zero")
	}
}

func TestRouteProperties(t *testing.T) {
	d := New(DefaultParams(2))
	f := func(raw uint64) bool {
		ch, bk, _ := d.route(mem.Addr(raw))
		return ch >= 0 && ch < d.Channels && bk >= 0 && bk < d.BanksPerChannel
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Same block must always route identically.
	a := mem.Addr(0x12345600)
	c1, b1, r1 := d.route(a)
	c2, b2, r2 := d.route(a + 13) // same block, different offset
	if c1 != c2 || b1 != b2 || r1 != r2 {
		t.Fatal("routing must be block-granular")
	}
}

func TestDrained(t *testing.T) {
	d := New(DefaultParams(1))
	if !d.Drained() {
		t.Fatal("fresh DRAM should be drained")
	}
	d.Access(&mem.Request{Addr: 0, Kind: mem.Load}, 0)
	if d.Drained() {
		t.Fatal("in-flight read should block drain")
	}
	drive(d, 1000)
	if !d.Drained() {
		t.Fatal("should drain after completion")
	}
}
