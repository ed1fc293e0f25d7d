// Benchmarks: one testing.B entry per reproduced paper table/figure
// (driving the same harness code as cmd/care-bench, at a reduced
// budget so `go test -bench .` completes in minutes), plus
// micro-benchmarks of the simulator's hot paths.
package care_test

import (
	"context"
	"io"
	"testing"

	"care"
)

// benchOptions returns a reduced-budget configuration so the full
// benchmark suite stays fast; cmd/care-bench runs the full-size
// version.
func benchOptions() care.ExperimentOptions {
	return care.ExperimentOptions{
		Scale:      32,
		Warmup:     5_000,
		Measure:    20_000,
		Mixes:      2,
		CoreCounts: []int{2, 4},
		GAPRecords: 50_000,
		Workloads:  []string{"429.mcf", "482.sphinx3", "462.libquantum"},
		Schemes:    []string{"lru", "ship++", "care"},
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := care.RunExperiment(id, io.Discard, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTab1StudyCaseMLP(b *testing.B)      { benchExperiment(b, "tab1") }
func BenchmarkTab2StudyCasePMC(b *testing.B)      { benchExperiment(b, "tab2") }
func BenchmarkFig3HitMissOverlap(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig5PMCDistribution(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkTab3PMCPredictability(b *testing.B) { benchExperiment(b, "tab3") }
func BenchmarkTab8MPKI(b *testing.B)              { benchExperiment(b, "tab8") }
func BenchmarkFig7NormalizedIPC(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8PureMissRate(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9GAP(b *testing.B)               { benchExperiment(b, "fig9") }
func BenchmarkFig10MixedWorkloads(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11SPECScaling(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12GAPScaling(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13SPECNoPrefetch(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14GAPNoPrefetch(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkTab5HardwareCost(b *testing.B)      { benchExperiment(b, "tab5") }
func BenchmarkTab6CostComparison(b *testing.B)    { benchExperiment(b, "tab6") }
func BenchmarkTab10PMRAndPMC(b *testing.B)        { benchExperiment(b, "tab10") }
func BenchmarkTab11AOCPA(b *testing.B)            { benchExperiment(b, "tab11") }

// Micro-benchmarks of the hot paths.

// BenchmarkSimulationCARE measures end-to-end simulated instructions
// per second with the CARE policy on a 4-core system.
func BenchmarkSimulationCARE(b *testing.B) {
	benchSimulation(b, "care")
}

// BenchmarkSimulationLRU is the baseline-policy counterpart.
func BenchmarkSimulationLRU(b *testing.B) {
	benchSimulation(b, "lru")
}

func benchSimulation(b *testing.B, policy care.Policy) {
	b.Helper()
	benchSimulationTelemetry(b, policy, "")
}

// benchSimulationTelemetry runs the 4-core mcf workload with an
// optional streaming telemetry sink, reporting simulated instructions
// per second. Comparing BenchmarkSimulationCARE (no sink) with
// BenchmarkSimulationTelemetryJSONL quantifies the collector's
// overhead (DESIGN.md §7 records the expectation: <2%).
func benchSimulationTelemetry(b *testing.B, policy care.Policy, format string) {
	b.Helper()
	const instr = 50_000
	for i := 0; i < b.N; i++ {
		traces := make([]care.TraceReader, 4)
		for j := range traces {
			traces[j] = care.MustSPECTrace("429.mcf", uint64(j+1), 16)
		}
		cfg := care.ScaledConfig(4, 16)
		cfg.LLCPolicy = policy
		cfg.Prefetch = true
		if format != "" {
			sink, err := care.NewTelemetrySink(format, io.Discard)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Telemetry = care.NewTelemetryCollector(care.TelemetryOptions{
				Interval: 10_000,
				Tag:      "bench",
				Sink:     sink,
			})
		}
		if _, err := care.Run(context.Background(), cfg, traces, care.RunOpts{Warmup: 5_000, Measure: instr}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(instr*4*b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSimulationTelemetryJSONL runs the same workload with a
// 10k-cycle JSONL telemetry stream (an aggressive interval; the
// default is 100k cycles, making the overhead smaller still).
func BenchmarkSimulationTelemetryJSONL(b *testing.B) {
	benchSimulationTelemetry(b, "care", "jsonl")
}

// BenchmarkTraceGeneration measures the synthetic workload generator.
func BenchmarkTraceGeneration(b *testing.B) {
	tr := care.MustSPECTrace("429.mcf", 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGAPTraceBFS measures graph-kernel trace capture.
func BenchmarkGAPTraceBFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := care.GAPTrace("bfs", "orkut", 100_000, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}
