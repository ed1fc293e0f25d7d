package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"care/internal/cache"
	"care/internal/synth"
	"care/internal/trace"
)

func mcfTraces(n int) []trace.Reader {
	p, err := synth.Lookup("429.mcf")
	if err != nil {
		panic(err)
	}
	out := make([]trace.Reader, n)
	for i := range out {
		out[i] = synth.NewGenerator(p, uint64(i+1))
	}
	return out
}

// runFresh executes a fresh warmup+measure job over traces.
func runFresh(cfg Config, traces []trace.Reader, warmup, measure uint64) (Result, error) {
	r, _, err := Execute(context.Background(), Job{
		Build:   func() (*System, error) { return New(cfg, traces) },
		Warmup:  warmup,
		Measure: measure,
	})
	return r, err
}

// mustRun advances the system and fails the test on any simulation
// failure (watchdog, invariant, component error).
func mustRun(t *testing.T, s *System, n uint64) uint64 {
	t.Helper()
	cycles, err := s.RunInstructions(n)
	if err != nil {
		t.Fatal(err)
	}
	return cycles
}

func TestNewValidation(t *testing.T) {
	cfg := ScaledConfig(2, 16)
	if _, err := New(cfg, mcfTraces(1)); err == nil {
		t.Fatal("core/trace count mismatch should error")
	}
	cfg.LLCPolicy = "no-such"
	if _, err := New(cfg, mcfTraces(2)); err == nil {
		t.Fatal("unknown policy should error")
	}
	cfg.Cores = 0
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("zero cores should error")
	}
}

// TestNewRefusesBadGeometry: a geometry cache.New would panic on, such
// as the 384-set LLC of three cores, fails New and Validate with an
// error wrapping cache.ErrGeometry.
func TestNewRefusesBadGeometry(t *testing.T) {
	odd := ScaledConfig(4, 16)
	odd.L2.Ways = 0
	for _, cfg := range []Config{ScaledConfig(3, 1), ScaledConfig(2, 3), odd} {
		if err := cfg.Validate(); !errors.Is(err, cache.ErrGeometry) {
			t.Fatalf("Validate(%d cores, L1 %+v, L2 %+v, LLC %+v): got %v, want ErrGeometry", cfg.Cores, cfg.L1, cfg.L2, cfg.LLC, err)
		}
		if _, err := New(cfg, mcfTraces(cfg.Cores)); !errors.Is(err, cache.ErrGeometry) {
			t.Fatalf("New(%d cores): got %v, want ErrGeometry", cfg.Cores, err)
		}
	}
	if err := ScaledConfig(4, 16).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleCoreRunProgresses(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	cycles := mustRun(t, s, 20000)
	if cycles == 0 {
		t.Fatal("no cycles executed")
	}
	r := s.Snapshot()
	if r.CoreInstructions[0] < 20000 {
		t.Fatalf("retired %d, want >= 20000", r.CoreInstructions[0])
	}
	ipc := r.CoreIPC[0]
	if ipc <= 0 || ipc > 8 {
		t.Fatalf("IPC %v outside (0, 8]", ipc)
	}
	llc := r.LLC
	if llc.DemandAccesses == 0 {
		t.Fatal("no LLC traffic for a memory-intensive workload")
	}
	if llc.DemandHits+llc.DemandMisses != llc.DemandAccesses {
		t.Fatalf("LLC accounting broken: %+v", llc)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		cfg := ScaledConfig(2, 16)
		cfg.LLCPolicy = "care"
		r, err := runFresh(cfg, mcfTraces(2), 5000, 20000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("simulation is not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestWarmupResetsStats(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, s, 10000)
	s.ResetStats()
	r := s.Snapshot()
	if r.CoreInstructions[0] != 0 || r.Cycles != 0 {
		t.Fatalf("stats survived reset: %+v", r)
	}
}

func TestPMCMeasuredAtLLC(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	r, err := runFresh(cfg, mcfTraces(1), 2000, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if r.LLC.DemandMisses == 0 {
		t.Fatal("expected LLC misses")
	}
	if r.MeanPMC <= 0 {
		t.Fatalf("mean PMC should be positive for mcf, got %v", r.MeanPMC)
	}
	if r.LLCPMR <= 0 || r.LLCPMR > 1 {
		t.Fatalf("pMR out of range: %v", r.LLCPMR)
	}
	if r.LLC.PureMisses > r.LLC.Misses() {
		t.Fatal("pure misses cannot exceed misses")
	}
	if r.AOCPA[0] < 0 {
		t.Fatal("AOCPA negative")
	}
}

func TestCAREWiring(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	cfg.LLCPolicy = "care"
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.CAREStats() == nil {
		t.Fatal("CARE stats should be exposed")
	}
	mustRun(t, s, 30000)
	cs := s.CAREStats()
	total := cs.InsertHighReuse + cs.InsertLowReuse + cs.InsertModerate + cs.InsertWriteback
	if total == 0 {
		t.Fatal("CARE policy saw no insertions")
	}
	// A non-CARE system exposes no CARE stats.
	cfg2 := ScaledConfig(1, 16)
	s2, err := New(cfg2, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	if s2.CAREStats() != nil {
		t.Fatal("LRU system must not expose CARE stats")
	}
}

func TestPrefetchingGeneratesPrefetchTraffic(t *testing.T) {
	p, _ := synth.Lookup("462.libquantum") // streaming: prefetch heaven
	cfg := ScaledConfig(1, 16)
	cfg.Prefetch = true
	s, err := New(cfg, []trace.Reader{synth.NewGenerator(p, 1)})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, s, 30000)
	// L2 sees prefetch requests from the IP-stride prefetcher; the
	// LLC sees the L1/L2 prefetch misses descending.
	if s.LLC().Stats().PrefetchAccesses == 0 {
		t.Fatal("no prefetch traffic reached the LLC")
	}
}

func TestPrefetchImprovesStreamingIPC(t *testing.T) {
	p, _ := synth.Lookup("462.libquantum")
	mk := func(pf bool) float64 {
		cfg := ScaledConfig(1, 16)
		cfg.Prefetch = pf
		r, err := runFresh(cfg, []trace.Reader{synth.NewGenerator(p, 1)}, 5000, 40000)
		if err != nil {
			t.Fatal(err)
		}
		return r.CoreIPC[0]
	}
	off, on := mk(false), mk(true)
	if on <= off {
		t.Fatalf("prefetching should speed up streaming: off=%v on=%v", off, on)
	}
}

func TestMultiCoreSharedLLCPressure(t *testing.T) {
	// Four copies of mcf share the LLC: per-core IPC must drop versus
	// running alone (the contention the paper's multi-core evaluation
	// relies on).
	single, err := runFresh(ScaledConfig(1, 16), mcfTraces(1), 2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := ScaledConfig(4, 16)
	cfg4.LLC.Sets = ScaledConfig(1, 16).LLC.Sets // force a 1-core-sized LLC for 4 cores
	quad, err := runFresh(cfg4, mcfTraces(4), 2000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if quad.CoreIPC[0] >= single.CoreIPC[0] {
		t.Fatalf("shared-LLC contention should hurt per-core IPC: single=%v quad=%v",
			single.CoreIPC[0], quad.CoreIPC[0])
	}
	if quad.LLC.PerCoreDemandAccesses[3] == 0 {
		t.Fatal("all cores should reach the LLC")
	}
}

func TestAllCoreCountsRun(t *testing.T) {
	for _, cores := range []int{1, 2, 4} {
		r, err := runFresh(ScaledConfig(cores, 32), mcfTraces(cores), 1000, 5000)
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if len(r.CoreIPC) != cores {
			t.Fatalf("cores=%d: got %d IPCs", cores, len(r.CoreIPC))
		}
	}
}

func TestIPCSum(t *testing.T) {
	r := Result{CoreIPC: []float64{1, 2, 3}}
	if r.IPCSum() != 6 {
		t.Fatal("IPCSum")
	}
}

func TestDrainFinishes(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, s, 5000)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if !s.LLC().Drained() {
		t.Fatal("LLC should drain")
	}
}

func TestPrefetcherOverrides(t *testing.T) {
	cfg := ScaledConfig(1, 32)
	cfg.Prefetch = true
	cfg.L2Prefetcher = "stream"
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, s, 10000)
	if s.LLC().Stats().PrefetchAccesses == 0 {
		t.Fatal("the stream prefetcher sent no prefetches to the LLC")
	}
	cfg.L2Prefetcher = "bogus"
	if _, err := New(cfg, mcfTraces(1)); err == nil {
		t.Fatal("unknown prefetcher name should error")
	}
}
