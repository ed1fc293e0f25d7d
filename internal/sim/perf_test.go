package sim

import (
	"testing"

	"care/internal/synth"
	"care/internal/trace"
)

// BenchmarkFourCoreRun measures end-to-end simulator throughput on
// the harness's standard 4-core CARE configuration.
func BenchmarkFourCoreRun(b *testing.B) {
	p, _ := synth.Lookup("429.mcf")
	for i := 0; i < b.N; i++ {
		traces := make([]trace.Reader, 4)
		for j := range traces {
			traces[j] = synth.NewGenerator(p, uint64(j+1))
		}
		cfg := ScaledConfig(4, 16)
		cfg.LLCPolicy = "care"
		cfg.Prefetch = true
		if _, err := runFresh(cfg, traces, 5000, 25000); err != nil {
			b.Fatal(err)
		}
	}
}
