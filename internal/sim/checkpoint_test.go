package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"care/internal/checkpoint"
	"care/internal/faultinject"
	"care/internal/graph"
	policypkg "care/internal/policy"
	"care/internal/telemetry"
	"care/internal/trace"
)

// ckptSchedule is the common small schedule the checkpoint tests run:
// two scheduled checkpoints (at 1/3 and 2/3 of the measured region)
// plus a final uncheckpointed segment.
const (
	ckptWarmup  = 3000
	ckptMeasure = 12000
	ckptEvery   = 4000
)

// ckptInput is what a checkpoint test's system runs: per-core traces
// and an optional fault spec.
type ckptInput struct {
	name   string
	traces func(cores int) []trace.Reader
	faults string
}

// mcfInput runs 429.mcf's endless synthetic generators, fault-free.
var mcfInput = ckptInput{name: "429.mcf", traces: mcfTraces}

// gapInput runs desynchronised copies of a recorded bfs-or trace
// (trace.Copies: offset, looping and slice readers).
func gapInput(t *testing.T) ckptInput {
	t.Helper()
	g, err := graph.LoadDataset("or")
	if err != nil {
		t.Fatal(err)
	}
	base, err := graph.Trace("bfs", g, 40_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ckptInput{name: "bfs-or", traces: func(cores int) []trace.Reader { return trace.Copies(base.Records, cores) }}
}

// ckptJob is the checkpoint tests' schedule for one input, policy and
// core count, checkpointing to path, with a telemetry collector
// attached when tele is set.
func ckptJob(in ckptInput, policy policypkg.Policy, cores int, path string, tele bool) (Job, *telemetry.Collector) {
	cfg := ScaledConfig(cores, 16)
	cfg.LLCPolicy = policy
	if in.faults != "" {
		fc, err := faultinject.ParseSpec(in.faults)
		if err != nil {
			panic(err)
		}
		cfg.Faults = &fc
	}
	var col *telemetry.Collector
	if tele {
		col = telemetry.NewCollector(telemetry.Options{
			Interval: 2000,
			Tag:      fmt.Sprintf("%s/%s/c%d", in.name, policy, cores),
		})
		cfg.Telemetry = col
	}
	return Job{
		Build:      func() (*System, error) { return New(cfg, in.traces(cores)) },
		Warmup:     ckptWarmup,
		Measure:    ckptMeasure,
		Checkpoint: CheckpointOptions{Path: path, Every: ckptEvery},
	}, col
}

// runFull executes the complete checkpointed schedule for one input,
// policy and core count, leaving the live checkpoint (2/3 point) and its
// rotated predecessor (1/3 point) at path. It returns the result and
// the full telemetry series when tele is set.
func runFull(t *testing.T, in ckptInput, policy policypkg.Policy, cores int, path string, tele bool) (Result, []telemetry.Interval) {
	t.Helper()
	job, col := ckptJob(in, policy, cores, path, tele)
	r, _, err := Execute(context.Background(), job)
	if err != nil {
		t.Fatalf("%s/%s/c%d full run: %v", in.name, policy, cores, err)
	}
	var series []telemetry.Interval
	if col != nil {
		series = col.Series()
	}
	return r, series
}

// soleCopy copies the checkpoint at from into a fresh directory with
// no rotated file beside it, so a resume can only restore from it.
func soleCopy(t *testing.T, from string) string {
	t.Helper()
	raw, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "resume.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// resumeFrom restores the checkpoint at from into a freshly built
// system over freshly constructed traces and completes the schedule.
func resumeFrom(t *testing.T, in ckptInput, policy policypkg.Policy, cores int, from string, tele bool) (Result, []telemetry.Interval) {
	t.Helper()
	job, col := ckptJob(in, policy, cores, soleCopy(t, from), tele)
	job.Resume = true
	r, _, err := Execute(context.Background(), job)
	if err != nil {
		t.Fatalf("%s/%s/c%d resume from %s: %v", in.name, policy, cores, filepath.Base(from), err)
	}
	var series []telemetry.Interval
	if col != nil {
		series = col.Series()
	}
	return r, series
}

// TestResumeEquivalence is the tentpole's correctness bar: for LRU,
// SHiP++, and CARE on 1-, 4-, and 8-core mixes, and for CARE on two
// cores over copies of a GAP trace and under trace bit flips, a run
// resumed from either retained checkpoint must produce byte-identical
// final stats and telemetry to the uninterrupted run.
func TestResumeEquivalence(t *testing.T) {
	check := func(t *testing.T, in ckptInput, policy policypkg.Policy, cores int) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		want, wantTele := runFull(t, in, policy, cores, path, true)
		for _, from := range []string{path, RotatedPath(path)} {
			got, gotTele := resumeFrom(t, in, policy, cores, from, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resume from %s diverged:\nresumed: %+v\nfull:    %+v",
					filepath.Base(from), got, want)
			}
			if !reflect.DeepEqual(gotTele, wantTele) {
				t.Fatalf("resume from %s: telemetry series diverged", filepath.Base(from))
			}
		}
	}
	for _, policy := range []policypkg.Policy{"lru", "ship++", "care"} {
		for _, cores := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/c%d", policy, cores), func(t *testing.T) { check(t, mcfInput, policy, cores) })
		}
	}
	faulted := mcfInput
	faulted.faults = "seed=7,trace-flip=64"
	for _, in := range []ckptInput{gapInput(t), faulted} {
		name := in.name
		if in.faults != "" {
			name = "faults=" + in.faults
		}
		t.Run(name+"/care/c2", func(t *testing.T) { check(t, in, "care", 2) })
	}
}

// TestRoundTripEveryPolicy round-trips every LLC policy
// (policy.All(), the full zoo, including CARE and M-CARE) through a
// checkpoint at 1/3, 4/3-scaled core configs: restore must reproduce
// the uninterrupted result bit-exactly.
func TestRoundTripEveryPolicy(t *testing.T) {
	coreCounts := []int{1, 4, 8}
	if testing.Short() {
		coreCounts = []int{2}
	}
	for _, policy := range policypkg.All() {
		for _, cores := range coreCounts {
			t.Run(fmt.Sprintf("%s/c%d", policy, cores), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				want, _ := runFull(t, mcfInput, policy, cores, path, false)
				got, _ := resumeFrom(t, mcfInput, policy, cores, path, false)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round-trip diverged:\nresumed: %+v\nfull:    %+v", got, want)
				}
			})
		}
	}
}

// resumeErr replays a (possibly damaged) checkpoint and returns the
// error.
func resumeErr(t *testing.T, policy policypkg.Policy, cores int, from string) error {
	t.Helper()
	job, _ := ckptJob(mcfInput, policy, cores, soleCopy(t, from), false)
	job.Resume = true
	_, _, err := Execute(context.Background(), job)
	return err
}

// TestCorruptCheckpointsRejected verifies a damaged checkpoint is
// always refused with the right typed error, never silently restored.
func TestCorruptCheckpointsRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	runFull(t, mcfInput, "lru", 1, path, false)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := func(mut []byte) {
		t.Helper()
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Bit flip in a frame payload -> CRC failure.
	mut := append([]byte(nil), good...)
	mut[len(mut)/2] ^= 0x04
	damage(mut)
	if err := resumeErr(t, "lru", 1, path); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("bit flip: got %v, want ErrCorrupt", err)
	}

	// Truncation -> ErrCorrupt.
	damage(good[:len(good)-len(good)/3])
	if err := resumeErr(t, "lru", 1, path); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("truncation: got %v, want ErrCorrupt", err)
	}

	// Future format version -> ErrVersion.
	mut = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(mut[len(checkpoint.Magic):], checkpoint.Version+7)
	damage(mut)
	if err := resumeErr(t, "lru", 1, path); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}

	// Restore the good file: wrong policy, wrong core count, and wrong
	// schedule are configuration mismatches.
	damage(good)
	if err := resumeErr(t, "ship++", 1, path); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("policy mismatch: got %v, want ErrMismatch", err)
	}
	if err := resumeErr(t, "lru", 2, path); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("core-count mismatch: got %v, want ErrMismatch", err)
	}
	job, _ := ckptJob(mcfInput, "lru", 1, soleCopy(t, path), false)
	job.Resume = true
	job.Measure++
	if _, _, err := Execute(context.Background(), job); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("schedule mismatch: got %v, want ErrMismatch", err)
	}
}

// stopOnRun cancels a context at the first record its core fetches
// once the clock has started, i.e. in the resumed run. It forwards
// the checkpoint walk to its reader.
type stopOnRun struct {
	trace.Reader
	s      *System
	cancel context.CancelFunc
}

func (r *stopOnRun) Checkpoint(s *checkpoint.State) { trace.Walk(s, r.Reader) }

func (r *stopOnRun) Next() (trace.Record, error) {
	if r.s.Cycle() > 0 {
		r.cancel()
	}
	return r.Reader.Next()
}

// TestStopWritesNoCheckpoint: a resumed run stopped mid-segment fails
// with an error matching both ErrInterrupted and context.Canceled and
// leaves the live checkpoint and its predecessor byte-unchanged, so
// resuming again is bit-identical to never stopping.
func TestStopWritesNoCheckpoint(t *testing.T) {
	src := filepath.Join(t.TempDir(), "run.ckpt")
	want, _ := runFull(t, mcfInput, "care", 1, src, false)
	path := copyCheckpoints(t, src)
	read := func(p string) []byte {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	live, rotated := read(path), read(RotatedPath(path))

	job, _ := ckptJob(mcfInput, "care", 1, path, false)
	job.Resume = true
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := ScaledConfig(1, 16)
	cfg.LLCPolicy = "care"
	stopped := job
	stopped.Build = func() (*System, error) {
		tr := &stopOnRun{Reader: mcfTraces(1)[0], cancel: cancel}
		s, err := New(cfg, []trace.Reader{tr})
		tr.s = s
		return s, err
	}
	_, out, err := Execute(ctx, stopped)
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped run: got %v, want ErrInterrupted and context.Canceled", err)
	}
	if out.From != path {
		t.Fatalf("stopped run resumed from %q, want %q", out.From, path)
	}
	if !bytes.Equal(read(path), live) || !bytes.Equal(read(RotatedPath(path)), rotated) {
		t.Fatal("the stop rewrote the checkpoint files")
	}

	got, _, err := Execute(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume after a stop diverged:\nresumed: %+v\nfull:    %+v", got, want)
	}
}

// TestDrainStopsAtScheduledCheckpoint: a context cancelled with
// ErrDrain as its cause runs on to the next scheduled checkpoint,
// writes it and stops there; resuming from it is bit-identical to
// never stopping.
func TestDrainStopsAtScheduledCheckpoint(t *testing.T) {
	want, _ := runFull(t, mcfInput, "care", 1, filepath.Join(t.TempDir(), "full.ckpt"), false)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	job, _ := ckptJob(mcfInput, "care", 1, path, false)
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(ErrDrain)
	r, _, err := Execute(ctx, job)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("drained run: got %v, want ErrInterrupted", err)
	}
	if r.CoreInstructions[0] < ckptEvery || r.CoreInstructions[0] >= 2*ckptEvery {
		t.Fatalf("drain stopped after %d measured instructions, want the first checkpoint at %d",
			r.CoreInstructions[0], ckptEvery)
	}
	if _, err := os.Stat(RotatedPath(path)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("drain wrote more than one checkpoint (stat %s: %v)", filepath.Base(RotatedPath(path)), err)
	}
	job.Resume = true
	got, _, err := Execute(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume after a drain diverged:\nresumed: %+v\nfull:    %+v", got, want)
	}
}

// copyCheckpoints copies the live checkpoint at src and its rotated
// predecessor into a fresh directory and returns the new live path.
func copyCheckpoints(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "run.ckpt")
	for _, p := range [][2]string{{src, dst}, {RotatedPath(src), RotatedPath(dst)}} {
		raw, err := os.ReadFile(p[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p[1], raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// flipByte corrupts one byte in the middle of the file at path.
func flipByte(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteResumeCascade drives Execute's resume cascade: live
// checkpoint, then its rotated predecessor, skipping missing files and
// checkpoint-class failures but no other failure.
func TestExecuteResumeCascade(t *testing.T) {
	src := filepath.Join(t.TempDir(), "run.ckpt")
	want, _ := runFull(t, mcfInput, "care", 2, src, false)
	resume := func(path string, maxCycles uint64) (Result, Outcome, error) {
		cfg := ScaledConfig(2, 16)
		cfg.LLCPolicy = "care"
		cfg.MaxCycles = maxCycles
		job, _ := ckptJob(mcfInput, "care", 2, path, false)
		job.Build = func() (*System, error) { return New(cfg, mcfTraces(2)) }
		job.Resume = true
		return Execute(context.Background(), job)
	}

	t.Run("corrupt live", func(t *testing.T) {
		path := copyCheckpoints(t, src)
		flipByte(t, path)
		got, out, err := resume(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.From != RotatedPath(path) || len(out.Skipped) != 1 || out.Skipped[0].Path != path ||
			!errors.Is(out.Skipped[0].Err, checkpoint.ErrCorrupt) {
			t.Fatalf("outcome %+v, want a resume from the rotated file after skipping the corrupt live one", out)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fallback run diverged:\nfallback: %+v\nfull:     %+v", got, want)
		}
	})
	t.Run("missing live", func(t *testing.T) {
		path := copyCheckpoints(t, src)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		got, out, err := resume(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.From != RotatedPath(path) || len(out.Skipped) != 0 {
			t.Fatalf("outcome %+v, want a resume from the rotated file with nothing skipped", out)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fallback run diverged:\nfallback: %+v\nfull:     %+v", got, want)
		}
	})
	t.Run("both corrupt", func(t *testing.T) {
		path := copyCheckpoints(t, src)
		flipByte(t, path)
		flipByte(t, RotatedPath(path))
		_, out, err := resume(path, 0)
		if !errors.Is(err, checkpoint.ErrCorrupt) || !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("got %v, want ErrNoCheckpoint wrapping ErrCorrupt", err)
		}
		if out.From != "" || len(out.Skipped) != 2 {
			t.Fatalf("outcome %+v, want both files skipped", out)
		}
	})
	t.Run("run failure does not fall back", func(t *testing.T) {
		path := copyCheckpoints(t, src)
		_, out, err := resume(path, 1)
		if !errors.Is(err, ErrCycleLimit) || errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("got %v, want the resumed run's ErrCycleLimit", err)
		}
		if out.From != path || len(out.Skipped) != 0 {
			t.Fatalf("outcome %+v, want the failure from the live checkpoint with nothing skipped", out)
		}
	})
}

// TestKillFaultFailsRun verifies the injected mid-run kill surfaces as
// a typed, diagnosable failure.
func TestKillFaultFailsRun(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	cfg.LLCPolicy = "lru"
	cfg.Faults = &faultinject.Config{Seed: 3, KillAtCycle: 2000}
	_, err := runFresh(cfg, mcfTraces(1), ckptWarmup, ckptMeasure)
	if !errors.Is(err, faultinject.ErrKilled) {
		t.Fatalf("kill fault: got %v, want ErrKilled", err)
	}
	var fe *FailureError
	if !errors.As(err, &fe) {
		t.Fatalf("kill fault should arrive as a *FailureError, got %T", err)
	}
}

// TestQuiesceIsTransparent verifies the quiesce/checkpoint schedule
// itself is deterministic: two identical checkpointed runs agree.
func TestQuiesceIsTransparent(t *testing.T) {
	a, _ := runFull(t, mcfInput, "care", 2, filepath.Join(t.TempDir(), "a.ckpt"), false)
	b, _ := runFull(t, mcfInput, "care", 2, filepath.Join(t.TempDir(), "b.ckpt"), false)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("checkpointed runs disagree:\n%+v\n%+v", a, b)
	}
}
