package harness

import (
	"fmt"

	"care/internal/core/care"
	"care/internal/core/studycase"
	"care/internal/sim"
	"care/internal/stats"
)

func runTab1(o *Options) error {
	results, total := studycase.RunPaper()
	t := stats.NewTable("miss", "MLP-based cost")
	for _, r := range results {
		if r.MLPCost == 0 && r.PMC == 0 && r.PureCycles == 0 && !r.HitOverlapped {
			continue
		}
		t.AddRow(r.Name, fmt.Sprintf("%.4f", r.MLPCost))
	}
	emitTable(o, t)
	_ = total
	return nil
}

func runTab2(o *Options) error {
	results, total := studycase.RunPaper()
	t := stats.NewTable("miss", "PMC", "pure cycles", "hit-overlapped")
	for _, r := range results {
		if r.MLPCost == 0 && r.PMC == 0 && r.PureCycles == 0 && !r.HitOverlapped {
			continue
		}
		t.AddRow(r.Name, fmt.Sprintf("%.4f", r.PMC), r.PureCycles, r.HitOverlapped)
	}
	emitTable(o, t)
	fmt.Fprintf(o.Out, "Active pure miss cycles: %d\n", total)
	return nil
}

func runTab5(o *Options) error {
	fmt.Fprint(o.Out, care.FormatCost(care.HardwareCost(care.PaperHWConfig())))
	return nil
}

func runTab7(o *Options) error {
	full := sim.DefaultConfig(4)
	scaled := sim.ScaledConfig(4, o.Scale)
	t := stats.NewTable("component", "paper (Table VII)", fmt.Sprintf("this run (scale 1/%d)", o.Scale))
	geom := func(g sim.CacheGeom) string {
		return fmt.Sprintf("%dKB %d-way, %d cycles, %d MSHRs",
			g.Sets*g.Ways*64/1024, g.Ways, g.Latency, g.MSHREntries)
	}
	t.AddRow("cores", "1-16, 4GHz, 8-issue, 256-entry ROB", "same")
	t.AddRow("L1D", geom(full.L1), geom(scaled.L1))
	t.AddRow("L2", geom(full.L2), geom(scaled.L2))
	t.AddRow("LLC (4-core, shared)", geom(full.LLC), geom(scaled.LLC))
	t.AddRow("prefetchers", "L1 next-line, L2 IP-stride", "same")
	t.AddRow("DRAM", "2400MT/s, tRP/tRCD=15ns, tCAS=12.5ns, 1-2 channels", "same (cycles: 60/60/50)")
	emitTable(o, t)
	return nil
}

func runTab6(o *Options) error {
	t := stats.NewTable("framework", "uses PC", "concurrency-aware", "total cost (KB)")
	for _, r := range care.CostComparison() {
		t.AddRow(r.Framework, r.UsesPC, r.ConcurrencyAware, fmt.Sprintf("%.2f", r.TotalKB))
	}
	emitTable(o, t)
	return nil
}
