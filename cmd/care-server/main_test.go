package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"care"
	"care/careapi"
	"care/internal/harness"
	"care/internal/policy"
	"care/internal/server"
)

// TestMain re-execs the test binary as a real care-server when the
// chaos environment variable is set, so the chaos test below can
// SIGKILL and restart an actual server process rather than a mock.
func TestMain(m *testing.M) {
	if os.Getenv("CARE_SERVER_REEXEC") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// chaosServer manages one server process incarnation.
type chaosServer struct {
	t        *testing.T
	dataDir  string
	addrFile string
	cmd      *exec.Cmd
	log      *bytes.Buffer
}

func (cs *chaosServer) start(faults string) {
	cs.t.Helper()
	os.Remove(cs.addrFile)
	args := []string{
		"-addr", "127.0.0.1:0", "-data", cs.dataDir,
		"-workers", "2", "-addr-file", cs.addrFile,
		"-drain-timeout", "30s",
	}
	if faults != "" {
		args = append(args, "-faults", faults)
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CARE_SERVER_REEXEC=1")
	cs.log = &bytes.Buffer{}
	cmd.Stderr = cs.log
	cmd.Stdout = cs.log
	if err := cmd.Start(); err != nil {
		cs.t.Fatal(err)
	}
	cs.cmd = cmd
}

// addr waits for the incarnation to publish its listen address.
func (cs *chaosServer) addr() string {
	cs.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(cs.addrFile)
		if err == nil && len(b) > 0 {
			return string(b)
		}
		// The process may have died by injected fault before binding.
		if cs.cmd.ProcessState != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cs.t.Fatalf("server never published its address; log:\n%s", cs.log.String())
	return ""
}

func (cs *chaosServer) kill() {
	cs.t.Helper()
	cs.cmd.Process.Signal(syscall.SIGKILL)
	cs.cmd.Wait()
}

// wait blocks until the process exits on its own (injected kill).
func (cs *chaosServer) wait(d time.Duration) bool {
	done := make(chan struct{})
	go func() { cs.cmd.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

func getJSON(t *testing.T, url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// chaosSpec is the shape of every chaos job: small enough to finish
// in tens of milliseconds, segmented into four checkpoints so kills
// land mid-run with resumable progress behind them.
const (
	chaosWarmup  = 2000
	chaosMeasure = 8000
	chaosEvery   = 2000
	chaosScale   = 64
)

var chaosCells = []struct{ workload, policy string }{
	{"429.mcf", "care"},
	{"429.mcf", "lru"},
	{"470.lbm", "care"},
	{"462.libquantum", "lru"},
}

// directResult computes the ground truth for one cell: a plain
// unsupervised care.Run on the same checkpoint schedule (the schedule
// — not the checkpoint files, retries, or server machinery — is what
// results depend on), marshalled to the same canonical bytes.
func directResult(t *testing.T, workload, pol string) string {
	t.Helper()
	cfg := care.ScaledConfig(1, chaosScale)
	p, err := policy.Parse(pol)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LLCPolicy = p
	traces := []care.TraceReader{care.MustSPECTrace(workload, 1, chaosScale)}
	r, err := care.Run(context.Background(), cfg, traces, care.RunOpts{
		Warmup:  chaosWarmup,
		Measure: chaosMeasure,
		// Same segment schedule as the server jobs, but no checkpoint
		// files and no supervision: pure computation.
		Checkpoint: &care.CheckpointOptions{Every: chaosEvery},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := harness.MarshalResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServerChaosExactlyOnce is the acceptance test for the daemon:
// a real care-server process is killed with SIGKILL — by injected
// crashes in the journal-append commit window, a torn journal write,
// a worker panic, and an external kill loop — and restarted until the
// campaign finishes. Every job must complete exactly once (one
// complete event in the whole journal history) with result bytes
// identical to an unsupervised run.
func TestServerChaosExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	root := t.TempDir()
	cs := &chaosServer{
		t:        t,
		dataDir:  filepath.Join(root, "data"),
		addrFile: filepath.Join(root, "addr"),
	}

	// Incarnation 1 carries the full server crash-class load: the 2nd
	// job's worker panics once, and the process self-kills right after
	// its 9th journal append is durable but before it is acknowledged.
	cs.start("worker-panic=2,server-kill-append=9")
	addr := cs.addr()

	var created careapi.SubmitResponse
	body := map[string]any{
		"kind": "spec", "cores": 1, "scale": chaosScale,
		"warmup": chaosWarmup, "measure": chaosMeasure, "checkpoint_every": chaosEvery,
	}
	for _, cell := range chaosCells {
		body["workload"], body["policy"] = cell.workload, cell.policy
		buf, _ := json.Marshal(body)
		resp, err := http.Post("http://"+addr+"/api/v1/jobs", "application/json", bytes.NewReader(buf))
		if err != nil {
			// The injected kill may beat the later submissions; the
			// journal keeps whatever committed.
			break
		}
		var one careapi.SubmitResponse
		json.NewDecoder(resp.Body).Decode(&one)
		resp.Body.Close()
		created.Jobs = append(created.Jobs, one.Jobs...)
	}
	if len(created.Jobs) == 0 {
		t.Fatalf("no submission survived; log:\n%s", cs.log.String())
	}
	// Let the injected append-kill fire.
	if !cs.wait(30 * time.Second) {
		cs.kill()
	}
	if !strings.Contains(cs.log.String(), "killing process after journal append") {
		t.Fatalf("server-kill-append never fired; log:\n%s", cs.log.String())
	}

	// Incarnation 2 tears the journal mid-record on its 3rd append and
	// dies there: replay must drop the torn tail and keep going. Submit
	// one more cell first: if the append-kill above happened to land
	// exactly as the last surviving job completed, the replayed queue
	// would otherwise be empty and the tear would never fire.
	cs.start("journal-tear=3")
	addr = cs.addr()
	body["workload"], body["policy"] = chaosCells[0].workload, chaosCells[0].policy
	buf, _ := json.Marshal(body)
	if resp, err := http.Post("http://"+addr+"/api/v1/jobs", "application/json", bytes.NewReader(buf)); err == nil {
		var one careapi.SubmitResponse
		json.NewDecoder(resp.Body).Decode(&one)
		resp.Body.Close()
		created.Jobs = append(created.Jobs, one.Jobs...)
	}
	if !cs.wait(30 * time.Second) {
		cs.kill()
	}
	if !strings.Contains(cs.log.String(), "tearing journal") {
		t.Fatalf("journal-tear never fired; log:\n%s", cs.log.String())
	}

	// Remaining incarnations: externally SIGKILLed on a timer until
	// the campaign completes (bounded by the test deadline).
	deadline := time.Now().Add(90 * time.Second)
	var finished []server.Job
	for round := 0; ; round++ {
		if time.Now().After(deadline) {
			// The server was just killed; the journal is the ground truth
			// for where the campaign stalled.
			jr, _ := os.ReadFile(filepath.Join(cs.dataDir, "journal"))
			t.Fatalf("campaign incomplete after chaos rounds; journal:\n%s\nlog:\n%s", jr, cs.log.String())
		}
		cs.start("")
		addr = cs.addr()
		// Alternate hard kills with progress windows; the window grows
		// so the tail of the campaign always gets to finish.
		window := time.Duration(150+100*round) * time.Millisecond
		done := false
		for waited := time.Duration(0); waited < window; waited += 25 * time.Millisecond {
			time.Sleep(25 * time.Millisecond)
			// Round 0 is always cut short by SIGKILL, so at least one
			// external kill lands at an arbitrary point mid-simulation
			// (the injected kills above land at chosen points).
			if round == 0 {
				continue
			}
			var h server.Health
			if err := getJSON(t, "http://"+addr+"/healthz", &h); err != nil {
				continue
			}
			// A submit whose ACK was lost to a crash may still have
			// committed: the server can legitimately own more jobs than
			// the client counted. Done = nothing left to run and at
			// least every acknowledged job finished.
			if h.Jobs[server.StateDone] >= len(created.Jobs) &&
				h.Jobs[server.StatePending] == 0 && h.Jobs[server.StateRunning] == 0 {
				done = true
				break
			}
		}
		if done {
			var list careapi.ListResponse
			if err := getJSON(t, "http://"+addr+"/api/v1/jobs", &list); err != nil {
				t.Fatal(err)
			}
			finished = list.Jobs
			// Graceful exit for the last incarnation: SIGTERM drains.
			cs.cmd.Process.Signal(syscall.SIGTERM)
			if !cs.wait(30 * time.Second) {
				t.Fatal("final incarnation did not drain after SIGTERM")
			}
			if ws := cs.cmd.ProcessState.ExitCode(); ws != 0 {
				t.Fatalf("graceful shutdown exited %d; log:\n%s", ws, cs.log.String())
			}
			break
		}
		cs.kill()
	}

	// Every submitted job completed... (lost-ACK submits can make the
	// server's count the larger one; every listed job is still checked)
	if len(finished) < len(created.Jobs) {
		t.Fatalf("%d jobs finished, %d submitted", len(finished), len(created.Jobs))
	}
	specByID := map[string]server.JobSpec{}
	for _, jb := range finished {
		if jb.State != server.StateDone {
			t.Fatalf("job %s ended %s (%s)", jb.ID, jb.State, jb.Error)
		}
		specByID[jb.ID] = jb.Spec
	}

	// ...exactly once: the full journal history holds one complete
	// event per job, no matter how many times the process died.
	journal, err := os.ReadFile(filepath.Join(cs.dataDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	completes := map[string]int{}
	resultBytes := map[string]string{}
	claims := 0
	for _, line := range bytes.Split(journal, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		fields := bytes.SplitN(line, []byte(" "), 4)
		var ev server.Event
		if err := json.Unmarshal(fields[3], &ev); err != nil {
			t.Fatalf("journal line unparseable: %q", line)
		}
		switch ev.Op {
		case "complete":
			completes[ev.Job]++
			resultBytes[ev.Job] = string(ev.Result)
		case "claim":
			claims++
		}
	}
	for _, jb := range finished {
		if completes[jb.ID] != 1 {
			t.Fatalf("job %s has %d complete events, want exactly 1\njournal:\n%s",
				jb.ID, completes[jb.ID], journal)
		}
	}
	if claims <= len(finished) {
		t.Logf("note: campaign finished with no crash-forced re-claims (%d claims)", claims)
	}
	// The contained worker panic left its durable trace: a requeue
	// whose reason names the panic.
	if !bytes.Contains(journal, []byte("worker panic")) {
		t.Fatalf("no worker-panic requeue in the journal:\n%s", journal)
	}

	// ...with results byte-identical to unsupervised runs. The
	// journal's complete event holds the canonical bytes (the HTTP
	// encoder re-indents embedded raw JSON, so the API copy is only
	// value-identical; compact it before comparing).
	for _, jb := range finished {
		want := directResult(t, jb.Spec.Workload, jb.Spec.Policy)
		if resultBytes[jb.ID] != want {
			t.Fatalf("job %s (%s/%s) diverged from the unsupervised run:\nserver: %s\ndirect: %s",
				jb.ID, jb.Spec.Workload, jb.Spec.Policy, resultBytes[jb.ID], want)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, jb.Result); err != nil {
			t.Fatal(err)
		}
		if compact.String() != want {
			t.Fatalf("job %s API result disagrees with its journal record:\napi: %s\njournal: %s",
				jb.ID, compact.String(), want)
		}
	}
}

// TestFlagValidation covers the CLI's error path without starting a
// server.
func TestFlagValidation(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-faults", "warp-core=1", "-data", t.TempDir())
	cmd.Env = append(os.Environ(), "CARE_SERVER_REEXEC=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("bad -faults accepted")
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("bad -faults exit: %v (%s)", err, out)
	}
	if !strings.Contains(string(out), "unknown fault") {
		t.Fatalf("unhelpful error: %s", out)
	}
}
