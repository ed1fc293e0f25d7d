package sim

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"care/internal/faultinject"
	policypkg "care/internal/policy"
	"care/internal/trace"
)

// chaosConfig is a small single-core system with a tight watchdog
// window and a hard cycle backstop, so every chaos test finishes in
// bounded time even if the failure it expects is never detected.
func chaosConfig() Config {
	cfg := ScaledConfig(1, 16)
	cfg.WatchdogWindow = 2000
	cfg.MaxCycles = 300_000
	return cfg
}

// failure extracts the structured failure from an error chain.
func failure(t *testing.T, err error) *FailureError {
	t.Helper()
	var fe *FailureError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *FailureError", err)
	}
	return fe
}

func TestWatchdogCatchesNeverRespondingDRAM(t *testing.T) {
	// Dropping every DRAM read response models dead memory: the MSHR
	// entries leak, the ROB wedges, and nothing ever retires again.
	// The watchdog must convert that silent hang into ErrNoProgress
	// within a bounded number of cycles.
	cfg := chaosConfig()
	cfg.Faults = &faultinject.Config{Seed: 1, DRAMDropEvery: 1}
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunInstructions(100_000)
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
	fe := failure(t, err)
	d := fe.Diag
	if d.Cycle == 0 || len(d.Cores) != 1 || len(d.Caches) == 0 {
		t.Fatalf("diagnostic not populated: %+v", d)
	}
	if d.Faults == nil || d.Faults.ResponsesDropped == 0 {
		t.Fatalf("diagnostic should report the injected drops: %+v", d.Faults)
	}
	if d.Cycle > cfg.MaxCycles {
		t.Fatalf("watchdog fired after the cycle backstop: %d", d.Cycle)
	}
}

func TestWatchdogCatchesMSHRSaturation(t *testing.T) {
	cfg := chaosConfig()
	cfg.Faults = &faultinject.Config{Seed: 2, MSHRSaturateAt: 3000}
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunInstructions(100_000)
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("want ErrNoProgress from a saturated LLC MSHR file, got %v", err)
	}
	d := failure(t, err).Diag
	if d.Faults == nil || d.Faults.MSHREntriesClaimed == 0 {
		t.Fatalf("no MSHR entries were claimed: %+v", d.Faults)
	}
	// The LLC diag line must show the full MSHR file.
	found := false
	for _, c := range d.Caches {
		if c.Name == "LLC" && c.MSHRUsed == c.MSHRCap {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagnostic should show a saturated LLC: %+v", d.Caches)
	}
}

func TestInvariantCheckerCatchesMetadataFlip(t *testing.T) {
	cfg := chaosConfig()
	cfg.LLCPolicy = "care"
	cfg.CheckInvariants = true
	cfg.InvariantEvery = 512
	cfg.Faults = &faultinject.Config{Seed: 3, MetaFlipAt: 4000}
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunInstructions(100_000)
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("want ErrInvariant from corrupted CARE metadata, got %v", err)
	}
	d := failure(t, err).Diag
	if d.Faults == nil || d.Faults.MetadataFlips == 0 {
		t.Fatalf("flip did not fire: %+v", d.Faults)
	}
}

func TestInvariantCheckerCatchesTagFlip(t *testing.T) {
	// Under LRU the policy has no metadata hook, so the injector flips
	// a tag bit instead; CheckIntegrity's tag→set mapping must notice.
	cfg := chaosConfig()
	cfg.CheckInvariants = true
	cfg.InvariantEvery = 512
	cfg.Faults = &faultinject.Config{Seed: 4, MetaFlipAt: 4000}
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunInstructions(100_000)
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("want ErrInvariant from a flipped tag bit, got %v", err)
	}
}

func TestTraceCorruptionPropagates(t *testing.T) {
	cfg := chaosConfig()
	cfg.Faults = &faultinject.Config{TraceCorruptAfter: 500}
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunInstructions(100_000)
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("want an error wrapping trace.ErrCorrupt, got %v", err)
	}
}

func TestDelayedResponsesRecover(t *testing.T) {
	// Delays shorter than the watchdog window slow the run down but
	// must not fail it: the held responses mature and progress resumes.
	cfg := ScaledConfig(1, 16)
	cfg.MaxCycles = 2_000_000
	cfg.Faults = &faultinject.Config{Seed: 5, DRAMDelayEvery: 50, DRAMDelayCycles: 2_000}
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunInstructions(20_000); err != nil {
		t.Fatalf("delayed (not dropped) responses must recover: %v", err)
	}
	if st := s.Diagnostic().Faults; st == nil || st.ResponsesDelayed == 0 {
		t.Fatal("no responses were delayed")
	}
}

func TestCycleLimit(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	cfg.MaxCycles = 5_000
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunInstructions(10_000_000)
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("want ErrCycleLimit, got %v", err)
	}
	if d := failure(t, err).Diag; d.Cycle != 5_000 {
		t.Fatalf("limit fired at cycle %d, want 5000", d.Cycle)
	}
}

// TestInterruptLandsOnStrideBoundary: the guard looks at Execute's
// context only on the watchdog stride, so a run under a cancelled
// context stops at the first stride boundary and reports
// ErrInterrupted. Cancelled before its first scheduled checkpoint, it
// leaves no checkpoint file.
func TestInterruptLandsOnStrideBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	job, _ := ckptJob(mcfInput, "care", 2, path, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := Execute(ctx, job)
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrInterrupted and context.Canceled, got %v", err)
	}
	if c := out.System.Cycle(); c != watchdogStride {
		t.Fatalf("stop observed at cycle %d, want the first stride boundary %d", c, watchdogStride)
	}
	for _, p := range []string{path, RotatedPath(path)} {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("stop left %s behind (stat: %v)", filepath.Base(p), err)
		}
	}
}

func TestAddressBitFlipsDoNotWedge(t *testing.T) {
	// Flipped trace addresses are garbage but legal: the run must
	// complete, with the flips visible in the fault counters.
	cfg := chaosConfig()
	cfg.Faults = &faultinject.Config{Seed: 6, TraceFlipEvery: 64}
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunInstructions(20_000); err != nil {
		t.Fatalf("bit-flipped addresses should still simulate: %v", err)
	}
	if st := s.Diagnostic().Faults; st == nil || st.RecordsFlipped == 0 {
		t.Fatal("no records were flipped")
	}
}

func TestIntegrityLayerPreservesDeterminism(t *testing.T) {
	// The watchdog and invariant checker only observe; with faults
	// disabled the results must be bit-identical to a plain run.
	base := func(mod func(*Config)) Result {
		cfg := ScaledConfig(2, 16)
		cfg.LLCPolicy = "care"
		if mod != nil {
			mod(&cfg)
		}
		r, err := runFresh(cfg, mcfTraces(2), 5000, 20000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain := base(nil)
	for name, mod := range map[string]func(*Config){
		"tight-watchdog": func(c *Config) { c.WatchdogWindow = 1000 },
		"invariants":     func(c *Config) { c.CheckInvariants = true; c.InvariantEvery = 256 },
		"zero-faults":    func(c *Config) { c.Faults = &faultinject.Config{Seed: 9} },
		"cycle-cap":      func(c *Config) { c.MaxCycles = 100_000_000 },
	} {
		if got := base(mod); !reflect.DeepEqual(got, plain) {
			t.Fatalf("%s changed the simulation result", name)
		}
	}
}

func TestInvariantsHoldOnHealthyRuns(t *testing.T) {
	for _, policy := range []policypkg.Policy{"lru", "care", "ship++"} {
		cfg := ScaledConfig(2, 16)
		cfg.LLCPolicy = policy
		cfg.CheckInvariants = true
		cfg.InvariantEvery = 256
		if _, err := runFresh(cfg, mcfTraces(2), 5000, 20000); err != nil {
			t.Fatalf("%s: healthy run violated an invariant: %v", policy, err)
		}
	}
}
