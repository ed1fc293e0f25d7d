package prefetch

import (
	"testing"

	"care/internal/mem"
)

func TestNextLineBasics(t *testing.T) {
	p := NewNextLine(1)
	got := p.OnAccess(0x400, 0x1000+7, true, nil)
	if len(got) != 1 {
		t.Fatalf("degree-1 returned %d addrs", len(got))
	}
	if got[0] != 0x1040 {
		t.Fatalf("next line = %#x, want 0x1040", uint64(got[0]))
	}
}

func TestNextLineDegree(t *testing.T) {
	p := NewNextLine(3)
	got := p.OnAccess(0x400, 0x2000, false, nil)
	want := []mem.Addr{0x2040, 0x2080, 0x20c0}
	if len(got) != 3 {
		t.Fatalf("degree-3 returned %d addrs", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("addr[%d] = %#x, want %#x", i, uint64(got[i]), uint64(want[i]))
		}
	}
}

func TestNextLineClampsDegree(t *testing.T) {
	if NewNextLine(0).Degree != 1 {
		t.Fatal("degree should clamp to 1")
	}
	if NewNextLine(-5).Degree != 1 {
		t.Fatal("negative degree should clamp to 1")
	}
}

func TestIPStrideTrainsAndPrefetches(t *testing.T) {
	p := NewIPStride()
	pc := mem.Addr(0x400100)
	stride := mem.Addr(2 * mem.BlockSize)
	var got []mem.Addr
	addr := mem.Addr(0x10000)
	// Need Threshold+1 accesses with the same stride to train.
	for i := 0; i < 5; i++ {
		got = p.OnAccess(pc, addr, false, nil)
		addr += stride
	}
	if len(got) != p.Degree {
		t.Fatalf("trained prefetcher returned %d addrs, want %d", len(got), p.Degree)
	}
	// Prefetches continue along the stride from the last access.
	last := addr - stride
	for i, a := range got {
		want := last + stride*mem.Addr(i+1)
		if a != want {
			t.Fatalf("prefetch[%d] = %#x, want %#x", i, uint64(a), uint64(want))
		}
	}
}

func TestIPStrideNegativeStride(t *testing.T) {
	p := NewIPStride()
	pc := mem.Addr(0x400200)
	addr := mem.Addr(0x100000)
	var got []mem.Addr
	for i := 0; i < 5; i++ {
		got = p.OnAccess(pc, addr, true, nil)
		addr -= 3 * mem.BlockSize
	}
	if len(got) == 0 {
		t.Fatal("negative strides should train too")
	}
	last := addr + 3*mem.BlockSize // the final accessed address
	if got[0] != last-3*mem.BlockSize {
		t.Fatalf("prefetch should go downward from %#x, got %#x", uint64(last), uint64(got[0]))
	}
}

func TestIPStrideResetOnStrideChange(t *testing.T) {
	p := NewIPStride()
	pc := mem.Addr(0x400300)
	p.OnAccess(pc, 0x0000, false, nil)
	p.OnAccess(pc, 0x0040, false, nil)
	p.OnAccess(pc, 0x0080, false, nil)
	// Stride change resets confidence; no prefetch immediately after.
	if got := p.OnAccess(pc, 0x1000, false, nil); len(got) != 0 {
		t.Fatalf("stride change should suppress prefetching, got %v", got)
	}
}

func TestIPStrideSameBlockNoTraining(t *testing.T) {
	p := NewIPStride()
	pc := mem.Addr(0x400400)
	for i := 0; i < 10; i++ {
		if got := p.OnAccess(pc, 0x5000, false, nil); len(got) != 0 {
			t.Fatal("same-block accesses must not produce prefetches")
		}
	}
}

func TestIPStrideDistinctPCsIndependent(t *testing.T) {
	p := NewIPStride()
	// Train PC A fully.
	addr := mem.Addr(0)
	for i := 0; i < 5; i++ {
		p.OnAccess(0x100, addr, false, nil)
		addr += mem.BlockSize
	}
	// A fresh PC that doesn't collide must start untrained.
	if got := p.OnAccess(0x101, 0x9000, false, nil); len(got) != 0 {
		t.Fatal("fresh PC should not prefetch")
	}
}

func TestIPStrideTableCollisionEvicts(t *testing.T) {
	p := NewIPStride()
	pcA := mem.Addr(0x100)
	pcB := pcA + mem.Addr(p.TableSize) // same table index, different tag
	addr := mem.Addr(0)
	for i := 0; i < 5; i++ {
		p.OnAccess(pcA, addr, false, nil)
		addr += mem.BlockSize
	}
	// B evicts A's entry...
	p.OnAccess(pcB, 0x40000, false, nil)
	// ...so A must retrain from scratch.
	if got := p.OnAccess(pcA, addr, false, nil); len(got) != 0 {
		t.Fatal("evicted PC should have lost its training")
	}
}

func TestNames(t *testing.T) {
	if NewNextLine(1).Name() != "next-line" {
		t.Fatal("next-line name")
	}
	if NewIPStride().Name() != "ip-stride" {
		t.Fatal("ip-stride name")
	}
}

// TestRegistry: New maps every prefetcher name to its prefetcher,
// "none" to no prefetcher, and fails on anything else.
func TestRegistry(t *testing.T) {
	for _, n := range []string{"next-line", "ip-stride", "stream"} {
		p, err := New(n)
		if err != nil || p == nil || p.Name() != n {
			t.Fatalf("New(%q): %v %v", n, p, err)
		}
	}
	for _, n := range []string{"none", ""} {
		if p, err := New(n); err != nil || p != nil {
			t.Fatalf("New(%q) must return a nil prefetcher", n)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown prefetcher should error")
	}
}

func TestStreamConfirmsThenRunsAhead(t *testing.T) {
	s := NewStream()
	var got []mem.Addr
	base := mem.Addr(0x100000)
	for i := 0; i < 6; i++ {
		got = s.OnAccess(0, base+mem.Addr(i*mem.BlockSize), false, nil)
	}
	if len(got) != s.Degree {
		t.Fatalf("confirmed stream should prefetch degree=%d, got %d", s.Degree, len(got))
	}
	// Prefetches land Distance blocks ahead of the last access.
	last := base + 5*mem.BlockSize
	want := last + mem.Addr(s.Distance*mem.BlockSize)
	if got[0] != want {
		t.Fatalf("prefetch[0] = %#x, want %#x", uint64(got[0]), uint64(want))
	}
}

func TestStreamDescending(t *testing.T) {
	s := NewStream()
	var got []mem.Addr
	base := mem.Addr(0x900000)
	for i := 0; i < 6; i++ {
		got = s.OnAccess(0, base-mem.Addr(i*mem.BlockSize), false, nil)
	}
	if len(got) == 0 {
		t.Fatal("descending streams should train too")
	}
	if got[0] >= base {
		t.Fatal("descending prefetch should go downward")
	}
}

func TestStreamInterleavedStreamsBothTrain(t *testing.T) {
	s := NewStream()
	a := mem.Addr(0x10_0000)
	b := mem.Addr(0x90_0000)
	var gotA, gotB []mem.Addr
	for i := 0; i < 8; i++ {
		gotA = s.OnAccess(0, a+mem.Addr(i*mem.BlockSize), false, nil)
		gotB = s.OnAccess(0, b+mem.Addr(i*mem.BlockSize), false, nil)
	}
	if len(gotA) == 0 || len(gotB) == 0 {
		t.Fatal("interleaved streams must both be tracked")
	}
}

func TestStreamRandomNoise(t *testing.T) {
	s := NewStream()
	rng := uint64(12345)
	fired := 0
	for i := 0; i < 500; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		if out := s.OnAccess(0, mem.Addr(rng%(1<<30))&^63, false, nil); len(out) > 0 {
			fired++
		}
	}
	if fired > 50 {
		t.Fatalf("random traffic should rarely trigger stream prefetches, fired %d/500", fired)
	}
}
