package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(ckpt, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		path    string
		every   uint64
		resume  bool
		wantErr bool
	}{
		{name: "plain run", wantErr: false},
		{name: "checkpointing", path: ckpt, every: 1000, wantErr: false},
		{name: "resume existing", path: ckpt, resume: true, wantErr: false},
		{name: "every without path", every: 1000, wantErr: true},
		{name: "resume without path", resume: true, wantErr: true},
		{name: "resume missing file", path: filepath.Join(t.TempDir(), "no.ckpt"), resume: true, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.path, tc.every, tc.resume)
			if tc.wantErr {
				if !errors.Is(err, errFlagConflict) {
					t.Fatalf("got %v, want errFlagConflict", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid combination rejected: %v", err)
			}
		})
	}
}

func TestValidateFlagsAcceptsRotatedOnly(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(ckpt+".1", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateFlags(ckpt, 0, true); err != nil {
		t.Fatalf("resume with only the rotated checkpoint present rejected: %v", err)
	}
}

// TestMain re-execs the test binary as the real care-sim when the
// re-exec variable is set, so the signal tests below can send real
// SIGINT/SIGTERM to a live simulation process.
func TestMain(m *testing.M) {
	if os.Getenv("CARE_SIM_REEXEC") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// careSim runs care-sim (this test binary re-executed) to completion
// in dir and returns its stdout; stderr goes to the test log.
func careSim(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CARE_SIM_REEXEC=1")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("care-sim %s: %v\n%s%s", strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return stdout.Bytes()
}

// TestSignalGracefulStop sends SIGTERM to a running care-sim and
// verifies the documented contract: exit code 1, an "interrupted"
// notice with partial results naming the scheduled checkpoint to
// resume from, and a -resume run whose report is byte-identical to an
// uninterrupted run's.
func TestSignalGracefulStop(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real simulation process")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	args := []string{
		"-workload", "429.mcf", "-cores", "1", "-policy", "care",
		"-scale", "64", "-warmup", "5000", "-instr", "1000000",
		"-checkpoint", "run.ckpt", "-checkpoint-every", "50000",
	}
	want := careSim(t, t.TempDir(), args...)

	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CARE_SIM_REEXEC=1")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the first scheduled checkpoint so the signal provably
	// lands mid-run, then ask for a graceful stop.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no checkpoint appeared; output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("interrupted run exited %v, want code 1; output:\n%s", err, out.String())
	}
	for _, want := range []string{
		"stop requested",
		"interrupted — partial results follow",
		"-resume continues from the scheduled checkpoint",
		"cycles:", // the partial summary did print
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}

	// The resumed run reports exactly what the uninterrupted one did.
	if got := careSim(t, dir, append(args, "-resume")...); !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from the uninterrupted run's:\n%s\nvs\n%s", got, want)
	}
}

// TestDefaultCheckpointSchedule: -checkpoint without -checkpoint-every
// checkpoints every quarter of -instr, so a completed run leaves its
// last scheduled checkpoint and the one before it.
func TestDefaultCheckpointSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real simulation process")
	}
	dir := t.TempDir()
	careSim(t, dir, "-workload", "429.mcf", "-cores", "1", "-scale", "64",
		"-warmup", "5000", "-instr", "40000", "-checkpoint", "q.ckpt")
	for _, name := range []string{"q.ckpt", "q.ckpt.1"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("completed run left no %s: %v", name, err)
		}
	}
}

// TestSignalInterruptWithoutCheckpoint covers the same contract with
// no -checkpoint configured: still a clean stop with partial results,
// just nothing to resume.
func TestSignalInterruptWithoutCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real simulation process")
	}
	cmd := exec.Command(os.Args[0],
		"-workload", "429.mcf", "-cores", "1", "-policy", "lru",
		"-scale", "64", "-warmup", "5000", "-instr", "2000000")
	cmd.Env = append(os.Environ(), "CARE_SIM_REEXEC=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Give it a moment to be mid-simulation, then SIGINT.
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("interrupted run exited %v, want code 1; output:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "interrupted — partial results follow") {
		t.Fatalf("no interrupt notice:\n%s", out.String())
	}
	if strings.Contains(out.String(), "-resume") {
		t.Fatalf("pointed at a checkpoint that was never configured:\n%s", out.String())
	}
}

// TestTimeoutFailsLoudly: -timeout is a deadline on the run's context.
// A run still going when it passes is a failure, not a stop: exit code
// 1, the deadline named with the diagnostic dump, and no partial
// results.
func TestTimeoutFailsLoudly(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real simulation process")
	}
	cmd := exec.Command(os.Args[0],
		"-workload", "429.mcf", "-cores", "1", "-warmup", "0",
		"-instr", "50000000", "-timeout", "300ms")
	cmd.Env = append(os.Environ(), "CARE_SIM_REEXEC=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("timed-out run exited %v, want code 1; stderr:\n%s", err, stderr.String())
	}
	for _, want := range []string{
		"simulation failed: -timeout 300ms passed",
		"diagnostic @ cycle",
		"context deadline exceeded",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	if strings.Contains(stderr.String(), "partial results") || stdout.Len() != 0 {
		t.Fatalf("a deadline must not report partial results:\nstdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}
