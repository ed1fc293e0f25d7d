package sim

import (
	"fmt"
	"io"
	"testing"

	"care/internal/checkpoint"
	"care/internal/policy"
)

// quiescedSystem builds a system at the given core count and scale
// with prefetching on, warms it up and drains it, so it is ready to
// write a checkpoint.
func quiescedSystem(tb testing.TB, cores, scale int, p policy.Policy) *System {
	tb.Helper()
	cfg := ScaledConfig(cores, scale)
	cfg.LLCPolicy = p
	cfg.Prefetch = true
	s, err := New(cfg, mcfTraces(cores))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.RunInstructions(5_000); err != nil {
		tb.Fatal(err)
	}
	if err := s.Quiesce(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// maxSaveAllocs bounds the objects one steady-state save allocates: 1
// today, the run metadata the meta frame's walk holds, and nothing per
// core, frame, frame byte or table entry.
const maxSaveAllocs = 2

// TestSaveCheckpointAllocs pins the cost of a steady-state save: once
// one save has sized the frame buffer, a save allocates a small,
// fixed number of objects, the same for a scale-16 LLC as for a
// four-times-larger scale-4 one, and the same at 4 cores as at 1.
func TestSaveCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	for _, p := range []policy.Policy{policy.LRU, policy.SHiPPP, policy.CARE} {
		t.Run(string(p), func(t *testing.T) {
			var got []float64
			for _, sys := range []struct{ cores, scale int }{{1, 16}, {1, 4}, {4, 16}} {
				s := quiescedSystem(t, sys.cores, sys.scale, p)
				w, err := checkpoint.NewWriter(io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				save := func() {
					if err := s.WriteCheckpoint(w, RunMeta{}); err != nil {
						t.Fatal(err)
					}
				}
				save()
				allocs := testing.AllocsPerRun(10, save)
				if allocs > maxSaveAllocs {
					t.Errorf("%d cores, scale %d: a steady-state save allocated %.1f objects, want at most %d",
						sys.cores, sys.scale, allocs, maxSaveAllocs)
				}
				t.Logf("%d cores, scale %d: %.1f allocations per save", sys.cores, sys.scale, allocs)
				got = append(got, allocs)
			}
			if got[0] != got[1] || got[0] != got[2] {
				t.Errorf("a steady-state save allocated %.1f objects at 1 core and scale 16, %.1f at scale 4, %.1f at 4 cores",
					got[0], got[1], got[2])
			}
		})
	}
}

// BenchmarkSaveCheckpoint times one checkpoint write to io.Discard:
// the campaign's cell (1 core, scale 16, CARE, prefetching on) and a
// 4-core system of the same scale.
func BenchmarkSaveCheckpoint(b *testing.B) {
	for _, cores := range []int{1, 4} {
		b.Run(fmt.Sprintf("c%d", cores), func(b *testing.B) {
			s := quiescedSystem(b, cores, 16, policy.CARE)
			w, err := checkpoint.NewWriter(io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := s.WriteCheckpoint(w, RunMeta{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
