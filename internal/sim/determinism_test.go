package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"care/internal/faultinject"
	"care/internal/policy"
	"care/internal/telemetry"
)

// runWithTelemetry builds a system for cfg with fresh mcf traces,
// attaches a retain-only telemetry collector, and runs warmup+measure,
// returning the Result, the completed telemetry intervals, and the run
// error.
func runWithTelemetry(t *testing.T, cfg Config, warmup, measure uint64) (Result, []telemetry.Interval, error) {
	t.Helper()
	col := telemetry.NewCollector(telemetry.Options{Interval: 700})
	cfg.Telemetry = col
	res, err := runFresh(cfg, mcfTraces(cfg.Cores), warmup, measure)
	return res, col.Series(), err
}

// TestFeatureMatrixRepeatable covers the options the default config
// leaves off: the invariant sweep and the stream prefetchers. Each
// run must repeat exactly; the invariant sweep only observes, so it
// must leave the run unchanged, while the prefetchers must change it.
func TestFeatureMatrixRepeatable(t *testing.T) {
	const warmup, measure = 2000, 6000
	base := ScaledConfig(4, 16)
	base.LLCPolicy = policy.CARE
	baseRes, baseSeries, err := runWithTelemetry(t, base, warmup, measure)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	for _, tc := range []struct {
		name        string
		mut         func(*Config)
		transparent bool
	}{
		{"invariants", func(c *Config) { c.CheckInvariants = true; c.InvariantEvery = 512 }, true},
		{"stream-prefetch", func(c *Config) { c.L1Prefetcher = "stream"; c.L2Prefetcher = "stream" }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			aRes, aSeries, err := runWithTelemetry(t, cfg, warmup, measure)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			bRes, bSeries, err := runWithTelemetry(t, cfg, warmup, measure)
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(aRes, bRes) {
				t.Fatalf("results diverge:\nfirst:  %+v\nsecond: %+v", aRes, bRes)
			}
			if !reflect.DeepEqual(aSeries, bSeries) {
				t.Fatalf("telemetry diverges:\nfirst:  %+v\nsecond: %+v", aSeries, bSeries)
			}
			same := reflect.DeepEqual(aRes, baseRes) && reflect.DeepEqual(aSeries, baseSeries)
			if tc.transparent && !same {
				t.Fatalf("%s changed the run:\nwith:    %+v\nwithout: %+v", tc.name, aRes, baseRes)
			}
			if !tc.transparent && same {
				t.Fatalf("%s left the run unchanged; the option is not wired in", tc.name)
			}
		})
	}
}

// TestFaultChaosRepeatable runs the injector's chaos classes —
// flipped trace addresses, delayed DRAM responses, saturated MSHRs,
// corrupt trace records — and requires the outcome, Result and any
// failure, to repeat exactly: the fault RNG is seeded per reader, so a
// fault-injected run is as reproducible as a clean one.
func TestFaultChaosRepeatable(t *testing.T) {
	for _, spec := range []string{
		"seed=7,trace-flip=64",
		"seed=11,dram-delay=40,dram-delay-cycles=97",
		"seed=3,trace-flip=96,dram-delay=150",
		"seed=5,mshr-saturate=9000",
		"seed=9,trace-corrupt=2500",
	} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			fcfg, err := faultinject.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			run := func() (Result, string) {
				cfg := ScaledConfig(4, 16)
				cfg.LLCPolicy = policy.CARE
				cfg.Prefetch = true
				f := fcfg
				cfg.Faults = &f
				// Chaos that wedges the hierarchy must abort the same
				// way each time; keep the watchdog armed but bounded.
				cfg.MaxCycles = 60_000
				res, err := runFresh(cfg, mcfTraces(cfg.Cores), 1500, 6000)
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				return res, msg
			}
			aRes, aErr := run()
			bRes, bErr := run()
			if aErr != bErr {
				t.Fatalf("errors diverge:\nfirst:  %s\nsecond: %s", aErr, bErr)
			}
			if !reflect.DeepEqual(aRes, bRes) {
				t.Fatalf("results diverge under %q:\nfirst:  %+v\nsecond: %+v", spec, aRes, bRes)
			}
		})
	}
}

// TestCheckpointFilesByteIdentical requires the checkpoint files of two
// identical checkpointed runs, live and rotated, to be byte-identical:
// a checkpoint is a pure function of the simulator state. It covers
// every policy at one core, the default schemes at four and CARE at
// eight. Resuming from those files is covered by TestResumeEquivalence.
func TestCheckpointFilesByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		cores    int
		policies []policy.Policy
	}{
		{1, policy.All()},
		{4, []policy.Policy{policy.LRU, policy.SHiPPP, policy.CARE}},
		{8, []policy.Policy{policy.CARE}},
	} {
		t.Run(fmt.Sprintf("c%d", tc.cores), func(t *testing.T) {
			for _, p := range tc.policies {
				t.Run(string(p), func(t *testing.T) {
					dir := t.TempDir()
					pathA, pathB := filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")
					a, _ := runFull(t, mcfInput, p, tc.cores, pathA, false)
					b, _ := runFull(t, mcfInput, p, tc.cores, pathB, false)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("checkpointed runs disagree:\n%+v\n%+v", a, b)
					}
					for _, pair := range [][2]string{{pathA, pathB}, {RotatedPath(pathA), RotatedPath(pathB)}} {
						fa, err := os.ReadFile(pair[0])
						if err != nil {
							t.Fatal(err)
						}
						fb, err := os.ReadFile(pair[1])
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(fa, fb) {
							t.Fatalf("%s and %s differ (%d vs %d bytes)",
								filepath.Base(pair[0]), filepath.Base(pair[1]), len(fa), len(fb))
						}
					}
				})
			}
		})
	}
}
