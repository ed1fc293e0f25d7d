package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain re-execs the test binary as the real care-bench when the
// re-exec variable is set, so the signal test below can interrupt a
// live campaign process.
func TestMain(m *testing.M) {
	if os.Getenv("CARE_BENCH_REEXEC") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncBuffer lets the parent poll the child's output while the child
// is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSignalGracefulStop interrupts a running campaign and verifies
// the wind-down contract: in-flight simulations finish, the pending
// ones are skipped with an error naming the cancelled context, the
// partial notice prints, and the process exits 1 (not 130, not 0).
func TestSignalGracefulStop(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real campaign process")
	}
	cmd := exec.Command(os.Args[0],
		"-run", "fig3",
		"-workloads", "429.mcf,470.lbm,462.libquantum,433.milc",
		"-scale", "64", "-warmup", "5000", "-measure", "100000",
		"-parallel", "1")
	cmd.Env = append(os.Environ(), "CARE_BENCH_REEXEC=1")
	out := &syncBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Signal once the experiment header shows the campaign is live;
	// three serialized simulations are still pending at that point.
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(out.String(), "== fig3") {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("campaign never started; output:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("interrupted campaign exited %v, want code 1; output:\n%s", err, out.String())
	}
	for _, want := range []string{
		"stop requested — finishing in-flight simulations",
		"skipped: context canceled",
		"interrupted — results above are partial",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestSecondSignalAborts: a second signal during the wind-down exits
// at once with status 130, without waiting for the in-flight
// simulation, which here would run for seconds.
func TestSecondSignalAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real campaign process")
	}
	cmd := exec.Command(os.Args[0],
		"-run", "fig3", "-workloads", "429.mcf",
		"-scale", "64", "-warmup", "5000", "-measure", "20000000")
	cmd.Env = append(os.Environ(), "CARE_BENCH_REEXEC=1")
	out := &syncBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // a failed check leaves no long simulation behind
	signalOnce := func(after string, settle time.Duration) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !strings.Contains(out.String(), after) {
			if time.Now().After(deadline) {
				t.Fatalf("no %q in the output:\n%s", after, out.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(settle)
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	// The settle lets the one simulation start, so the first signal
	// leaves it in flight rather than skipping it and ending the run.
	signalOnce("== fig3", 200*time.Millisecond)
	signalOnce("stop requested", 0)
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("twice-signalled campaign exited %v, want code 130; output:\n%s", err, out.String())
	}
}

// TestListExitsCleanly pins the no-signal baseline: -list completes
// with status 0 and no interrupt notices.
func TestListExitsCleanly(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-list")
	cmd.Env = append(os.Environ(), "CARE_BENCH_REEXEC=1")
	outB, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("-list failed: %v\n%s", err, outB)
	}
	if !strings.Contains(string(outB), "fig3") || strings.Contains(string(outB), "interrupted") {
		t.Fatalf("unexpected -list output:\n%s", outB)
	}
}
