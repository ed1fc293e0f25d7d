package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"care/internal/cache"
	"care/internal/checkpoint"
	"care/internal/faultinject"
	"care/internal/sim"
	"care/internal/telemetry"
)

// chaosKey is the simulation the supervisor tests run: small enough to
// finish in milliseconds, big enough for three checkpoint segments.
func chaosKey() runKey {
	return runKey{
		kind:     "spec",
		workload: "429.mcf",
		scheme:   "care",
		cores:    2,
		scale:    16,
		warmup:   3000,
		measure:  12000,
	}
}

// supervisedOpts builds a defaulted option set with checkpointing into
// dir and the chaos schedule (three segments of 4000).
func supervisedOpts(t *testing.T, dir string) *Options {
	t.Helper()
	o := &Options{
		Measure:         12000,
		Warmup:          3000,
		CheckpointDir:   dir,
		CheckpointEvery: 4000,
		RetryBackoff:    time.Millisecond,
		Report:          NewReport(),
	}
	o.Defaults()
	return o
}

// lastCheckpointCycle reads the absolute cycle recorded in the live
// checkpoint's meta frame, so the chaos test can aim its kill fault
// just past the final scheduled checkpoint.
func lastCheckpointCycle(t *testing.T, path string) uint64 {
	t.Helper()
	var m sim.RunMeta
	err := checkpoint.Load(path, func(r *checkpoint.Reader) error {
		return r.Frame("meta", m.Checkpoint)
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.Cycle
}

// TestSupervisorChaosRecovery is the acceptance chaos test: with a
// mid-run kill and checkpoint corruption injected, the supervisor
// retries from the last *good* checkpoint (the corrupt live file falls
// back to its rotated predecessor), the run completes bit-identical to
// an unfaulted one, and the degradation report is accurate.
func TestSupervisorChaosRecovery(t *testing.T) {
	key := chaosKey()

	// Baseline: same schedule, no faults, supervised (so the checkpoint
	// quiesce schedule matches the chaos run's).
	base := supervisedOpts(t, t.TempDir())
	want, err := base.superviseSim(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	killAt := lastCheckpointCycle(t, base.checkpointPath(key)) + 50

	// Chaos run: the 2nd (final scheduled) checkpoint is corrupted on
	// disk, and the run is killed shortly after writing it. The retry
	// must reject the corrupt live checkpoint, resume from its rotated
	// predecessor, and still reproduce the baseline bit-exactly.
	chaos := supervisedOpts(t, t.TempDir())
	chaos.MaxAttempts = 3
	chaos.Faults = &faultinject.Config{Seed: 11, KillAtCycle: killAt, CkptCorruptNth: 2}
	got, err := chaos.superviseSim(context.Background(), key)
	if err != nil {
		t.Fatalf("chaos run did not recover: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered run diverged from baseline:\nchaos:    %+v\nbaseline: %+v", got, want)
	}

	completed, retried, dropped := chaos.Report.Counts()
	if completed != 1 || retried != 1 || dropped != 0 {
		t.Fatalf("report counts completed=%d retried=%d dropped=%d, want 1/1/0",
			completed, retried, dropped)
	}
	oc := chaos.Report.Outcomes()[0]
	if oc.Attempts != 2 || oc.Resumed != 1 {
		t.Fatalf("outcome %+v, want 2 attempts with 1 resume", oc)
	}
	if !strings.Contains(chaos.Report.Summary(), "1 completed (1 retried), 0 dropped") {
		t.Fatalf("summary misreports the campaign:\n%s", chaos.Report.Summary())
	}
}

// TestResumedRunRegistersWholeSeries: a supervised run killed after
// its last checkpoint and resumed registers the same telemetry series
// as the clean run, warmup intervals included, because the checkpoint
// carries the whole series.
func TestResumedRunRegistersWholeSeries(t *testing.T) {
	key := chaosKey()
	run := func(faults *faultinject.Config) []telemetry.Series {
		t.Helper()
		o := supervisedOpts(t, t.TempDir())
		o.TelemetryRegistry = telemetry.NewRegistry()
		o.TelemetryInterval = 2000
		o.MaxAttempts = 2
		o.Faults = faults
		if _, err := o.superviseSim(context.Background(), key); err != nil {
			t.Fatal(err)
		}
		if faults != nil {
			if oc := o.Report.Outcomes()[0]; oc.Resumed != 1 {
				t.Fatalf("outcome %+v, want one resume", oc)
			}
		}
		return o.TelemetryRegistry.Series()
	}
	base := supervisedOpts(t, t.TempDir())
	if _, err := base.superviseSim(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	killAt := lastCheckpointCycle(t, base.checkpointPath(key)) + 50

	want := run(nil)
	got := run(&faultinject.Config{Seed: 11, KillAtCycle: killAt})
	if len(want) != 1 || len(telemetry.Measured(want[0].Intervals)) == len(want[0].Intervals) {
		t.Fatalf("clean run registered %d series, want one with warmup intervals", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run registered %d intervals, clean run %d", intervals(got), intervals(want))
	}
}

// intervals counts the intervals of every series.
func intervals(series []telemetry.Series) int {
	n := 0
	for _, s := range series {
		n += len(s.Intervals)
	}
	return n
}

// TestAttemptFallbackSkipsCorruptCheckpoint drives a resumed attempt
// directly: with the live checkpoint bit-flipped on disk, a retry must
// fall back to the rotated predecessor and still complete correctly.
func TestAttemptFallbackSkipsCorruptCheckpoint(t *testing.T) {
	key := chaosKey()
	o := supervisedOpts(t, t.TempDir())
	want, err := o.superviseSim(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	path := o.checkpointPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, resumed, err := runAttempt(context.Background(), key, o, path, true, 2)
	if err != nil {
		t.Fatalf("fallback attempt failed: %v", err)
	}
	if !resumed {
		t.Fatal("attempt restarted fresh, want a resume from the rotated checkpoint")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback run diverged:\nfallback: %+v\nbaseline: %+v", got, want)
	}
}

// TestSupervisorDropsAndReports verifies a run that keeps failing is
// dropped with full per-simulation context instead of aborting the
// campaign machinery.
func TestSupervisorDropsAndReports(t *testing.T) {
	key := chaosKey()
	o := supervisedOpts(t, t.TempDir())
	o.MaxAttempts = 1
	// Kill during warmup: no checkpoint exists yet and no retries are
	// budgeted, so the run must be dropped.
	o.Faults = &faultinject.Config{Seed: 5, KillAtCycle: 2000}
	_, err := o.superviseSim(context.Background(), key)
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("dropped run returned %T (%v), want *SimError", err, err)
	}
	if se.Workload != key.workload || se.Scheme != key.scheme || se.Cores != key.cores || se.Attempts != 1 {
		t.Fatalf("SimError context wrong: %+v", se)
	}
	if !errors.Is(err, faultinject.ErrKilled) {
		t.Fatalf("SimError should wrap the kill: %v", err)
	}
	completed, retried, dropped := o.Report.Counts()
	if completed != 0 || retried != 0 || dropped != 1 {
		t.Fatalf("report counts completed=%d retried=%d dropped=%d, want 0/0/1",
			completed, retried, dropped)
	}
	if !strings.Contains(o.Report.Summary(), "dropped") ||
		!strings.Contains(o.Report.Summary(), key.tag()) {
		t.Fatalf("summary does not name the dropped run:\n%s", o.Report.Summary())
	}
}

// TestTimeoutIsPerAttemptDeadline: Options.Timeout is a deadline on
// each attempt's own context. An attempt still running when it passes
// fails with context.DeadlineExceeded and is retried, since the
// caller's context is not done; a run whose every attempt times out
// is dropped after its attempt budget.
func TestTimeoutIsPerAttemptDeadline(t *testing.T) {
	key := chaosKey()
	key.measure = 50_000_000
	o := &Options{
		Timeout:      50 * time.Millisecond,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		Report:       NewReport(),
	}
	o.Defaults()
	start := time.Now()
	_, err := o.superviseSim(context.Background(), key)
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("two 50ms attempts took %s", took)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("timed-out run returned %T (%v), want *SimError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("want an error wrapping context.DeadlineExceeded and sim.ErrInterrupted, got %v", err)
	}
	if se.Attempts != 2 {
		t.Fatalf("the timed-out attempt was not retried: %d attempts, want 2", se.Attempts)
	}
	if completed, retried, dropped := o.Report.Counts(); completed != 0 || retried != 0 || dropped != 1 {
		t.Fatalf("report counts completed=%d retried=%d dropped=%d, want 0/0/1", completed, retried, dropped)
	}
}

// TestSupervisorRestartsWithoutCheckpoint verifies a kill before the
// first checkpoint retries from scratch and completes.
func TestSupervisorRestartsWithoutCheckpoint(t *testing.T) {
	key := chaosKey()
	base := supervisedOpts(t, t.TempDir())
	want, err := base.superviseSim(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	o := supervisedOpts(t, t.TempDir())
	o.MaxAttempts = 2
	o.Faults = &faultinject.Config{Seed: 5, KillAtCycle: 2000}
	got, err := o.superviseSim(context.Background(), key)
	if err != nil {
		t.Fatalf("retry from scratch failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("retried-from-scratch run diverged from baseline")
	}
	oc := o.Report.Outcomes()[0]
	if oc.Attempts != 2 || oc.Resumed != 0 || !oc.Completed {
		t.Fatalf("outcome %+v, want 2 attempts, 0 resumes, completed", oc)
	}
}

// TestParallelReportsAllErrors covers the campaign-summary fix: every
// failed job's error must surface, not just the first.
func TestParallelReportsAllErrors(t *testing.T) {
	err := parallel(4, 2, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("job %d exploded", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("parallel swallowed the errors")
	}
	for _, want := range []string{"job 1 exploded", "job 3 exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error is missing %q:\n%v", want, err)
		}
	}
}

// TestInterruptSkipsPendingJobs verifies the SIGINT path: after
// Interrupt, queued jobs fail with ErrInterrupted instead of running.
func TestInterruptSkipsPendingJobs(t *testing.T) {
	defer ResetInterrupt()
	Interrupt()
	ran := 0
	err := parallel(3, 1, func(i int) error {
		ran++
		return nil
	})
	if ran != 0 {
		t.Fatalf("%d jobs ran after interrupt", ran)
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("skipped jobs: got %v, want ErrInterrupted", err)
	}
}

// TestRunSpecRefusesBadGeometry: a spec whose cache geometry the
// simulator cannot build, such as three cores' 384-set LLC, is refused
// at validation with an error wrapping cache.ErrGeometry.
func TestRunSpecRefusesBadGeometry(t *testing.T) {
	spec := RunSpec{Kind: "spec", Workload: "462.libquantum", Scheme: "lru", Cores: 3, Measure: 1000}
	if err := spec.Validate(); !errors.Is(err, cache.ErrGeometry) {
		t.Fatalf("3 cores: got %v, want ErrGeometry", err)
	}
	spec.Cores = 4
	if err := spec.Validate(); err != nil {
		t.Fatalf("4 cores: %v", err)
	}
}
