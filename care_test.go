package care_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"care"
)

func TestPublicAPISmoke(t *testing.T) {
	if len(care.SPECWorkloads()) != 30 {
		t.Fatal("30 SPEC workloads expected")
	}
	if len(care.GAPKernels()) != 5 || len(care.GAPDatasets()) != 3 {
		t.Fatal("5 GAP kernels over 3 datasets expected")
	}
	found := map[care.Policy]bool{}
	for _, p := range care.AllPolicies() {
		found[p] = true
	}
	for _, want := range []care.Policy{"lru", "srrip", "ship++", "hawkeye", "glider", "mockingjay", "care", "m-care"} {
		if !found[want] {
			t.Fatalf("policy %q missing from public registry", want)
		}
	}
	if len(care.Experiments()) < 22 {
		t.Fatalf("expected >= 22 experiments, got %d", len(care.Experiments()))
	}
}

func TestPublicStudyCase(t *testing.T) {
	results, pure := care.StudyCase()
	if pure != 5 {
		t.Fatalf("active pure miss cycles = %d, want 5", pure)
	}
	out := care.FormatStudyCase(results, pure)
	if !strings.Contains(out, "Active pure miss cycles: 5") {
		t.Fatal("formatted study case malformed")
	}
}

func TestPublicHardwareCost(t *testing.T) {
	total, conc := care.HardwareCostKB()
	if total < 26 || total > 27 {
		t.Fatalf("total cost %.2fKB out of Table V range", total)
	}
	if conc < 6.5 || conc > 7 {
		t.Fatalf("concurrency share %.2fKB out of Table V range", conc)
	}
}

func TestPublicSimulation(t *testing.T) {
	traces := []care.TraceReader{care.MustSPECTrace("429.mcf", 1, 32)}
	cfg := care.ScaledConfig(1, 32)
	cfg.LLCPolicy = "care"
	r, err := care.Run(context.Background(), cfg, traces, care.RunOpts{Warmup: 2_000, Measure: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	if r.IPCSum() <= 0 {
		t.Fatal("no progress")
	}
	if r.LLC.DemandAccesses == 0 {
		t.Fatal("no LLC traffic")
	}
}

func TestPublicGAPTrace(t *testing.T) {
	tr, err := care.GAPTrace("bfs", "orkut", 10_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.PC == 0 {
		t.Fatal("GAP record should have a PC")
	}
	if _, err := care.GAPTrace("nope", "orkut", 100, 1); err == nil {
		t.Fatal("unknown kernel should error")
	}
	if _, err := care.SPECTrace("nope", 1, 1); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestPublicExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := care.RunExperiment("tab2", &buf, care.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Active pure miss cycles: 5") {
		t.Fatalf("tab2 via public API malformed:\n%s", buf.String())
	}
}

func TestOffsetAndLoopingTraces(t *testing.T) {
	tr, err := care.GAPTrace("bfs", "orkut", 1_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := tr.Next()
	tr2, _ := care.GAPTrace("bfs", "orkut", 1_000, 1)
	shifted := care.OffsetTrace(care.LoopingTrace(tr2), care.Addr(1<<40))
	rec, err := shifted.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Addr != base.Addr+care.Addr(1<<40) {
		t.Fatal("OffsetTrace must shift addresses")
	}
}
