package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"care/internal/sim"
)

// tiny returns options small enough for unit tests.
func tiny() Options {
	return Options{
		Scale:      32,
		Warmup:     2000,
		Measure:    10000,
		Mixes:      2,
		CoreCounts: []int{1, 2},
		GAPRecords: 20000,
		Workloads:  []string{"429.mcf", "482.sphinx3"},
		Schemes:    []string{"lru", "care"},
	}
}

func runExp(t *testing.T, id string, o Options) string {
	t.Helper()
	var buf bytes.Buffer
	o.Out = &buf
	if err := Run(id, o); err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("Run(%s) produced no output", id)
	}
	return buf.String()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "tab1", "tab2", "tab3", "tab5", "tab6", "tab8",
		"tab7", "tab10", "tab11", "svc",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(IDs()) {
		t.Fatal("All/IDs mismatch")
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestStaticExperiments(t *testing.T) {
	out := runExp(t, "tab1", tiny())
	if !strings.Contains(out, "5.0000") {
		t.Fatalf("tab1 should show A's MLP cost of 5:\n%s", out)
	}
	out = runExp(t, "tab2", tiny())
	if !strings.Contains(out, "Active pure miss cycles: 5") {
		t.Fatalf("tab2 should show 5 active pure miss cycles:\n%s", out)
	}
	out = runExp(t, "tab5", tiny())
	if !strings.Contains(out, "26.6") {
		t.Fatalf("tab5 should total ≈26.64KB:\n%s", out)
	}
	out = runExp(t, "tab6", tiny())
	for _, fw := range []string{"LRU", "SHiP++", "Hawkeye", "Glider", "Mockingjay", "CARE", "SBAR"} {
		if !strings.Contains(out, fw) {
			t.Fatalf("tab6 missing %s:\n%s", fw, out)
		}
	}
}

func TestFig3(t *testing.T) {
	out := runExp(t, "fig3", tiny())
	if !strings.Contains(out, "429.mcf") || !strings.Contains(out, "MEAN") {
		t.Fatalf("fig3 output malformed:\n%s", out)
	}
}

func TestFig5AndTab3(t *testing.T) {
	o := tiny()
	out := runExp(t, "fig5", o)
	if !strings.Contains(out, "350+") {
		t.Fatalf("fig5 must include the open-ended bin:\n%s", out)
	}
	out = runExp(t, "tab3", o)
	if !strings.Contains(out, "median") {
		t.Fatalf("tab3 must report medians:\n%s", out)
	}
}

func TestTab8(t *testing.T) {
	out := runExp(t, "tab8", tiny())
	if !strings.Contains(out, "MPKI") {
		t.Fatalf("tab8 malformed:\n%s", out)
	}
}

func TestFig7Fig8Tab10ShareRuns(t *testing.T) {
	ResetCache()
	o := tiny()
	out := runExp(t, "fig7", o)
	if !strings.Contains(out, "GEOMEAN") || !strings.Contains(out, "care") {
		t.Fatalf("fig7 malformed:\n%s", out)
	}
	// fig8 and tab10 reuse the memoised runs: they must be fast and
	// consistent.
	out8 := runExp(t, "fig8", o)
	if !strings.Contains(out8, "MEAN") {
		t.Fatalf("fig8 malformed:\n%s", out8)
	}
	out10 := runExp(t, "tab10", o)
	if !strings.Contains(out10, "pMR") || !strings.Contains(out10, "PMC") {
		t.Fatalf("tab10 malformed:\n%s", out10)
	}
}

// TestFig7Ordering pins the paper's headline Fig. 7 verdict: over the
// 4-core SPEC runs with prefetching, the geomean IPC over LRU orders
// CARE > SHiP++ > LRU. It runs every workload (no hand-picked subset)
// at scale 32 with a 5k warmup and 10k measured instructions per core,
// the smallest budget found at which both gaps stay near 3 points:
// measured GEOMEAN lru 1.0000, ship++ 1.0361, care 1.0664, so SHiP++
// leads LRU by 3.6 points and CARE leads SHiP++ by 3.0 (4.6 s on a
// 2-CPU host). The memory-intensive 16-workload subset at the same
// budget saved about a second but narrowed SHiP++'s lead to 3.1
// points; a 2k warmup narrowed it to 1.8.
func TestFig7Ordering(t *testing.T) {
	o := Options{
		Scale:   32,
		Warmup:  5_000,
		Measure: 10_000,
		Schemes: []string{"lru", "ship++", "care"},
		CSV:     true,
	}
	out := runExp(t, "fig7", o)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var header, geomean []string
	for _, l := range lines {
		cells := strings.Split(l, ",")
		switch cells[0] {
		case "workload":
			header = cells
		case "GEOMEAN":
			geomean = cells
		}
	}
	if header == nil || len(geomean) != len(header) {
		t.Fatalf("fig7 output has no GEOMEAN row matching its header:\n%s", out)
	}
	gm := map[string]float64{}
	for i, scheme := range header[1:] {
		v, err := strconv.ParseFloat(geomean[i+1], 64)
		if err != nil {
			t.Fatalf("GEOMEAN %s: %v", scheme, err)
		}
		gm[scheme] = v
	}
	if !(gm["care"] > gm["ship++"] && gm["ship++"] > gm["lru"]) {
		t.Fatalf("fig7 geomean IPC over LRU lost the paper's ordering CARE > SHiP++ > LRU: %v", gm)
	}
}

func TestFig10(t *testing.T) {
	out := runExp(t, "fig10", tiny())
	if !strings.Contains(out, "GEOMEAN") || !strings.Contains(out, "best for") {
		t.Fatalf("fig10 malformed:\n%s", out)
	}
}

func TestScalability(t *testing.T) {
	o := tiny()
	out := runExp(t, "fig11", o)
	if !strings.Contains(out, "cores") {
		t.Fatalf("fig11 malformed:\n%s", out)
	}
	out = runExp(t, "fig13", o)
	if !strings.Contains(out, "care") {
		t.Fatalf("fig13 malformed:\n%s", out)
	}
}

func TestGAPExperiments(t *testing.T) {
	o := tiny()
	o.Workloads = nil
	out := runExp(t, "fig9", o)
	for _, wl := range []string{"bfs-or", "pr-tw", "sssp-ur", "GEOMEAN"} {
		if !strings.Contains(out, wl) {
			t.Fatalf("fig9 missing %s:\n%s", wl, out)
		}
	}
}

func TestTab11(t *testing.T) {
	out := runExp(t, "tab11", tiny())
	if !strings.Contains(out, "AOCPA") {
		t.Fatalf("tab11 malformed:\n%s", out)
	}
}

func TestUnknownWorkloadErrors(t *testing.T) {
	o := tiny()
	o.Workloads = []string{"does-not-exist"}
	o.Out = &bytes.Buffer{}
	o.Defaults()
	if err := Run("fig7", o); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestAblations(t *testing.T) {
	o := tiny()
	o.Workloads = []string{"429.mcf"}
	for _, id := range []string{"abl-dtrm", "abl-sample", "abl-mshr"} {
		out := runExp(t, id, o)
		if !strings.Contains(out, "GEOMEAN") && !strings.Contains(out, "MSHR") {
			t.Fatalf("%s output malformed:\n%s", id, out)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	o := tiny()
	o.CSV = true
	out := runExp(t, "tab8", o)
	if !strings.Contains(out, "workload,suite,LLC MPKI") {
		t.Fatalf("CSV header missing:\n%s", out)
	}
	if strings.Contains(out, "---") {
		t.Fatal("CSV output must not contain text-table rules")
	}
}

func TestRunRecoversExperimentPanic(t *testing.T) {
	register(Experiment{
		ID:    "zz-test-panic",
		Title: "test-only: panics on purpose",
		Run:   func(o *Options) error { panic("policy exploded") },
	})
	err := Run("zz-test-panic", tiny())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if !strings.Contains(pe.ID, "zz-test-panic") {
		t.Fatalf("panic not tagged with experiment ID: %q", pe.ID)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "policy exploded") {
		t.Fatalf("panic value lost: %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("stack trace missing")
	}
}

func TestParallelRecoversWorkerPanic(t *testing.T) {
	// One worker panics; the others must finish and the process must
	// survive with a tagged error.
	ran := make([]bool, 8)
	err := parallel(8, 4, func(i int) error {
		if i == 3 {
			panic("worker blew up")
		}
		ran[i] = true
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	for i, ok := range ran {
		if i != 3 && !ok {
			t.Fatalf("worker %d did not run", i)
		}
	}
}

func TestGuardRailsAbortRunawaySimulation(t *testing.T) {
	ResetCache()
	defer ResetCache()
	o := tiny()
	o.MaxCycles = 500 // far below what warmup needs
	err := Run("tab8", o)
	if !errors.Is(err, sim.ErrCycleLimit) {
		t.Fatalf("want sim.ErrCycleLimit through the harness, got %v", err)
	}
}
