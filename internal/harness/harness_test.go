package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
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

// tableDigests pins the SHA-256 of each experiment's output at the
// tiny() budgets, so the experiment layer can be restructured only if
// every table stays byte-identical. A change that moves simulator
// output re-records these along with internal/sim's golden.txt; the
// failure message prints the new digest.
var tableDigests = map[string]string{
	"fig3":       "d2d0f246873318dc355d9a374a713d0593c3490363da2e46cd70a0a4f114b249",
	"fig5":       "fa400be1e07dbc610414e7d4453c40c3f55d8511dc26f4cc2ca4cb950f62d0e3",
	"tab3":       "90e038f5816d637fccd85f81cefae824dcef42f551d7e2f025a00bf10f15ddc5",
	"tab8":       "7eabc74c42e722503d77800ce4723bae2924e64af6e46a9749f1116f6506e88a",
	"fig7":       "d19d6aee80d3d39fc915b061b061745a1d48e1cd743c1a828943433df0026b6b",
	"fig8":       "fd319a32bde132948eb398a3d85db09c6554707404679c5582082ef426beb014",
	"tab10":      "28174581ed3496bf5c7c367ac430fe90a1574e416e503369b424323e5ca39d6c",
	"fig10":      "a3bba0a7100a3e164b9f3c6111e5b2606a6887a3e3fb8139bcfd92c336fe5569",
	"fig11":      "140c73f89f8cbd2176b7acab5525183d30f27d158a88b7f5942f4db5ad9bb050",
	"fig13":      "b668796e804a19398dc5345a32917f473457dd65f77f20eb0041d9f8531ac63c",
	"fig9":       "a517ac5f8f4d551d3d7dddca350ab4e54d976dd97b4634ebe3a9e63728789124",
	"tab11":      "e6bd6ec35eabbf247b342a70028ed005a13e4a4ce1404f4e8ddbc54eb22e0d9d",
	"abl-dtrm":   "ff5fb6d0b46b416edacdbb2c99ef628fb15e3036ad7070d83e385611bdd901e0",
	"abl-sample": "1aa8088e08fe5c9d28c0c07de8c4f8415c694751e94af04d0b572db17164a6c4",
	"abl-mshr":   "afbe06787aa84e05f397c504b5644add02cc199695e94aea334c84fd0d596eee",
}

// checkDigest compares out with id's pinned table digest.
func checkDigest(t *testing.T, id, out string) {
	t.Helper()
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != tableDigests[id] {
		t.Errorf("%s output digest %s, want %s:\n%s", id, got, tableDigests[id], out)
	}
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
	checkDigest(t, "fig3", out)
}

func TestFig5AndTab3(t *testing.T) {
	o := tiny()
	out := runExp(t, "fig5", o)
	if !strings.Contains(out, "350+") {
		t.Fatalf("fig5 must include the open-ended bin:\n%s", out)
	}
	checkDigest(t, "fig5", out)
	out = runExp(t, "tab3", o)
	if !strings.Contains(out, "median") {
		t.Fatalf("tab3 must report medians:\n%s", out)
	}
	checkDigest(t, "tab3", out)
}

func TestTab8(t *testing.T) {
	out := runExp(t, "tab8", tiny())
	if !strings.Contains(out, "MPKI") {
		t.Fatalf("tab8 malformed:\n%s", out)
	}
	checkDigest(t, "tab8", out)
}

func TestFig7Fig8Tab10ShareRuns(t *testing.T) {
	ResetCache()
	o := tiny()
	out := runExp(t, "fig7", o)
	if !strings.Contains(out, "GEOMEAN") || !strings.Contains(out, "care") {
		t.Fatalf("fig7 malformed:\n%s", out)
	}
	checkDigest(t, "fig7", out)
	// fig8 and tab10 reuse the memoised runs: they must be fast and
	// consistent.
	out8 := runExp(t, "fig8", o)
	if !strings.Contains(out8, "MEAN") {
		t.Fatalf("fig8 malformed:\n%s", out8)
	}
	checkDigest(t, "fig8", out8)
	out10 := runExp(t, "tab10", o)
	if !strings.Contains(out10, "pMR") || !strings.Contains(out10, "PMC") {
		t.Fatalf("tab10 malformed:\n%s", out10)
	}
	checkDigest(t, "tab10", out10)

	// Without lru among the schemes, fig7 still normalises to an LRU
	// baseline it runs itself.
	o.Schemes = []string{"care"}
	o.CSV = true
	out = runExp(t, "fig7", o)
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if len(rows) != len(o.Workloads)+2 {
		t.Fatalf("fig7 -schemes care has %d lines, want %d:\n%s", len(rows), len(o.Workloads)+2, out)
	}
	for _, row := range rows[1:] {
		cells := strings.Split(row, ",")
		v, err := strconv.ParseFloat(cells[len(cells)-1], 64)
		if err != nil || math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
			t.Fatalf("fig7 -schemes care cell %q is not a finite ratio:\n%s", cells[len(cells)-1], out)
		}
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
	checkDigest(t, "fig10", out)
}

func TestScalability(t *testing.T) {
	o := tiny()
	out := runExp(t, "fig11", o)
	if !strings.Contains(out, "cores") {
		t.Fatalf("fig11 malformed:\n%s", out)
	}
	checkDigest(t, "fig11", out)
	out = runExp(t, "fig13", o)
	if !strings.Contains(out, "care") {
		t.Fatalf("fig13 malformed:\n%s", out)
	}
	checkDigest(t, "fig13", out)
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
	checkDigest(t, "fig9", out)
}

func TestTab11(t *testing.T) {
	out := runExp(t, "tab11", tiny())
	if !strings.Contains(out, "AOCPA") {
		t.Fatalf("tab11 malformed:\n%s", out)
	}
	checkDigest(t, "tab11", out)
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
		checkDigest(t, id, out)
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
	defer delete(experiments, "zz-test-panic")
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
