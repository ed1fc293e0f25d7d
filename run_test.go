package care_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"care"
)

func mcf4(tb testing.TB) []care.TraceReader {
	tb.Helper()
	traces := make([]care.TraceReader, 4)
	for i := range traces {
		traces[i] = care.MustSPECTrace("429.mcf", uint64(i+1), 16)
	}
	return traces
}

func mcfConfig() care.SystemConfig {
	cfg := care.ScaledConfig(4, 16)
	cfg.LLCPolicy = care.PolicyCARE
	cfg.Prefetch = true
	return cfg
}

// TestRunContextCancellation: a cancelled context interrupts the run,
// surfacing both ErrInterrupted and the context's error.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must stop at its first guard point
	_, err := care.Run(ctx, mcfConfig(), mcf4(t), care.RunOpts{Measure: 5_000_000})
	if !errors.Is(err, care.ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want the context.Canceled cause attached", err)
	}
}

// TestRunUnknownPolicyTypedError: config validation rejects a bad
// policy with the typed error before any simulation work happens.
func TestRunUnknownPolicyTypedError(t *testing.T) {
	cfg := mcfConfig()
	cfg.LLCPolicy = "definitely-not-a-policy"
	_, err := care.Run(context.Background(), cfg, mcf4(t), care.RunOpts{Measure: 1000})
	var unknown *care.ErrUnknownPolicy
	if !errors.As(err, &unknown) {
		t.Fatalf("got %v, want *ErrUnknownPolicy", err)
	}
	if unknown.Name != "definitely-not-a-policy" {
		t.Fatalf("error names %q", unknown.Name)
	}
}

// TestRunWithCheckpointSchedule: RunOpts.Checkpoint writes a
// checkpoint file, and — per the sim-level contract that Every, not
// Path, determines the executed schedule — a run that checkpoints to
// disk is byte-identical to one running the same schedule without
// writing anything.
func TestRunWithCheckpointSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckpt, err := care.Run(context.Background(), mcfConfig(), mcf4(t), care.RunOpts{
		Warmup:     5_000,
		Measure:    20_000,
		Checkpoint: &care.CheckpointOptions{Path: path, Every: 5_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	sameSchedule, err := care.Run(context.Background(), mcfConfig(), mcf4(t), care.RunOpts{
		Warmup:     5_000,
		Measure:    20_000,
		Checkpoint: &care.CheckpointOptions{Every: 5_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ckpt, sameSchedule) {
		t.Fatalf("same checkpoint schedule diverged:\nwith path: %+v\nwithout:   %+v", ckpt, sameSchedule)
	}
}

// TestRunTelemetryOption: RunOpts.Telemetry attaches the collector.
func TestRunTelemetryOption(t *testing.T) {
	col := care.NewTelemetryCollector(care.TelemetryOptions{Interval: 2_000})
	if _, err := care.Run(context.Background(), mcfConfig(), mcf4(t),
		care.RunOpts{Warmup: 5_000, Measure: 20_000, Telemetry: col}); err != nil {
		t.Fatal(err)
	}
	if len(col.Series()) == 0 {
		t.Fatal("collector sampled no intervals")
	}
}

// ownReader is a caller's own trace reader, which cannot store its
// position in a checkpoint.
type ownReader struct{ care.TraceReader }

// TestRunRefusesToCheckpointOwnReader: a run that writes checkpoints
// over a caller's own TraceReader is refused with ErrNotCheckpointable
// and writes nothing; without a checkpoint path it runs.
func TestRunRefusesToCheckpointOwnReader(t *testing.T) {
	traces := []care.TraceReader{ownReader{care.MustSPECTrace("429.mcf", 1, 16)}}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := care.ScaledConfig(1, 16)
	_, err := care.Run(context.Background(), cfg, traces, care.RunOpts{
		Measure: 10_000, Checkpoint: &care.CheckpointOptions{Path: path, Every: 5_000},
	})
	if !errors.Is(err, care.ErrNotCheckpointable) {
		t.Fatalf("got %v, want ErrNotCheckpointable", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused run left a checkpoint (stat: %v)", err)
	}
	if _, err := care.Run(context.Background(), cfg, traces, care.RunOpts{Measure: 10_000}); err != nil {
		t.Fatal(err)
	}
}
