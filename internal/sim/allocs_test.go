package sim

import (
	"testing"

	"care/internal/policy"
	"care/internal/telemetry"
)

// TestSteadyStateZeroAllocs pins the end-to-end zero-allocation
// property: once warmup has sized every pool and ring (request pools,
// input-queue rings, MSHR waiter slices, ROB tables, PMC scratch,
// telemetry ring), advancing the full system — cores, three cache
// levels, prefetchers, DRAM, the PML sweep, and interval telemetry
// sampling — allocates nothing per simulated cycle. It covers the
// baseline, the strongest prior policy and CARE on a synthetic SPEC
// trace and on a GAP kernel trace.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, wl := range []string{"429.mcf", "bfs-or"} {
		for _, p := range []policy.Policy{policy.LRU, policy.SHiPPP, policy.CARE} {
			t.Run(wl+"/"+string(p), func(t *testing.T) {
				cfg := ScaledConfig(2, 16)
				cfg.LLCPolicy = p
				cfg.Prefetch = true
				// A short interval so the measured window crosses telemetry
				// boundaries (snapshot into the preallocated ring, no sink).
				cfg.Telemetry = telemetry.NewCollector(telemetry.Options{Interval: 512})
				traces := mcfTraces(2)
				if wl != "429.mcf" {
					traces = goldenTraces(t, wl, 2)
				}
				s, err := New(cfg, traces)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.RunInstructions(30_000); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := s.RunInstructions(200); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("steady-state simulation allocated %.2f objects per 200-instruction slice", allocs)
				}
			})
		}
	}
}

func BenchmarkSteadyStateSlice(b *testing.B) {
	cfg := ScaledConfig(2, 16)
	cfg.LLCPolicy = "care"
	cfg.Prefetch = true
	cfg.Telemetry = telemetry.NewCollector(telemetry.Options{Interval: 512})
	s, err := New(cfg, mcfTraces(2))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.RunInstructions(30_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunInstructions(200); err != nil {
			b.Fatal(err)
		}
	}
}
