package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"care"
	"care/careapi"
	"care/internal/harness"
	"care/internal/policy"
	"care/internal/server"
)

// TestMain re-execs the test binary as a real care-worker (or as the
// chaos test's server fixture) when the matching environment variable
// is set, so the chaos test below can SIGKILL, partition, and restart
// actual processes rather than mocks.
func TestMain(m *testing.M) {
	switch {
	case os.Getenv("CARE_WORKER_REEXEC") == "1":
		os.Exit(run())
	case os.Getenv("CARE_CHAOS_SERVER") == "1":
		os.Exit(chaosServerMain())
	}
	os.Exit(m.Run())
}

// chaosServerMain is the server side of the chaos rig: a queue-only
// care-server (no local workers) configured through environment
// variables, durably journaled so SIGKILL loses nothing. Compaction is
// disabled so the final journal holds the campaign's full event
// history for the exactly-once proof.
func chaosServerMain() int {
	s, err := server.New(server.Config{
		Addr:             os.Getenv("CARE_CHAOS_ADDR"),
		DataDir:          os.Getenv("CARE_CHAOS_DATA"),
		NoLocalWorkers:   true,
		LeaseCheckEvery:  25 * time.Millisecond,
		CompactMinEvents: -1,
		DrainTimeout:     10 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos-server:", err)
		return 1
	}
	if err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-server:", err)
		return 1
	}
	addrFile := os.Getenv("CARE_CHAOS_ADDRFILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(s.Addr()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-server:", err)
		return 1
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-server:", err)
		return 1
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	<-sigc
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-server: shutdown:", err)
		return 1
	}
	return 0
}

// proc is one chaos-rig process incarnation (server or worker).
type proc struct {
	t   *testing.T
	cmd *exec.Cmd
	log *bytes.Buffer
}

func startProc(t *testing.T, env []string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), env...)
	logBuf := &bytes.Buffer{}
	cmd.Stdout, cmd.Stderr = logBuf, logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{t: t, cmd: cmd, log: logBuf}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return p
}

func (p *proc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	p.cmd.Wait()
}

// drain SIGTERMs the process and requires a clean exit.
func (p *proc) drain(d time.Duration) {
	p.t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		p.t.Fatalf("process did not drain within %s; log:\n%s", d, p.log.String())
	}
	if code := p.cmd.ProcessState.ExitCode(); code != 0 {
		p.t.Fatalf("drain exited %d; log:\n%s", code, p.log.String())
	}
}

// chaosRig ties the server fixture and its worker fleet together.
type chaosRig struct {
	t         *testing.T
	root      string
	dataDir   string
	addrFile  string
	fixedAddr string
	server    *proc
	nworkers  int
}

func (cr *chaosRig) startServer() {
	cr.t.Helper()
	if cr.fixedAddr == "" {
		// Restarted incarnations must come back on the SAME address the
		// worker fleet already knows, exactly like a redeployed daemon:
		// grab a free port once and pin every incarnation to it.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cr.t.Fatal(err)
		}
		cr.fixedAddr = l.Addr().String()
		l.Close()
	}
	os.Remove(cr.addrFile)
	cr.server = startProc(cr.t, []string{
		"CARE_CHAOS_SERVER=1",
		"CARE_CHAOS_ADDR=" + cr.fixedAddr,
		"CARE_CHAOS_DATA=" + cr.dataDir,
		"CARE_CHAOS_ADDRFILE=" + cr.addrFile,
	})
}

func (cr *chaosRig) addr() string {
	cr.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(cr.addrFile)
		if err == nil && len(b) > 0 {
			return string(b)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cr.t.Fatalf("server never published its address; log:\n%s", cr.server.log.String())
	return ""
}

// startWorker boots a real care-worker process with a short lease and
// fast heartbeat, so chaos consequences land within test timescales.
// Every chaos worker runs 2 slots and declares the capability envelope
// the constrained sweep below requires, so concurrency and constraint
// matching are exercised under every fault in the chain.
func (cr *chaosRig) startWorker(name, faults string) *proc {
	cr.t.Helper()
	cr.nworkers++
	args := []string{
		"-server", "http://" + cr.addr(),
		"-name", name,
		"-data", filepath.Join(cr.root, "worker-"+name),
		"-lease-ttl", "1s",
		"-heartbeat", "30ms",
		"-poll", "25ms",
		"-slots", "2",
		"-cores", "8",
		"-labels", "chaos",
	}
	if faults != "" {
		args = append(args, "-faults", faults)
	}
	return startProc(cr.t, []string{"CARE_WORKER_REEXEC=1"}, args...)
}

// chaosSSE tails the server's event stream across server deaths: each
// broken connection is reconnected with the last seen event id, so
// across the whole campaign every journaled transition must be
// observed exactly once — the streaming analogue of the journal's
// exactly-once property.
type chaosSSE struct {
	mu         sync.Mutex
	ids        map[string]careapi.JobEvent // event id → transition
	dups       []string
	completes  map[string]int // job → done transitions seen
	progress   int
	reconnects int
	cancel     context.CancelFunc
	done       chan struct{}
}

func (cr *chaosRig) startSSE() *chaosSSE {
	addr := cr.addr() // pinned across server incarnations
	ctx, cancel := context.WithCancel(context.Background())
	c := &chaosSSE{
		ids:       map[string]careapi.JobEvent{},
		completes: map[string]int{},
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	go func() {
		defer close(c.done)
		last, first := "", true
		for ctx.Err() == nil {
			url := "http://" + addr + "/api/v1/jobs/events"
			if first {
				url += "?after=0"
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				return
			}
			if !first && last != "" {
				req.Header.Set("Last-Event-ID", last)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil || resp.StatusCode != http.StatusOK {
				if resp != nil {
					resp.Body.Close()
				}
				time.Sleep(50 * time.Millisecond) // server down or restarting
				continue
			}
			if !first {
				c.mu.Lock()
				c.reconnects++
				c.mu.Unlock()
			}
			first = false
			sc := bufio.NewScanner(resp.Body)
			var name, id, data string
			for sc.Scan() {
				line := sc.Text()
				switch {
				case line == "":
					if data != "" {
						var ev careapi.JobEvent
						if json.Unmarshal([]byte(data), &ev) == nil {
							c.record(name, id, ev)
							if id != "" {
								last = id
							}
						}
					}
					name, id, data = "", "", ""
				case strings.HasPrefix(line, "event: "):
					name = strings.TrimPrefix(line, "event: ")
				case strings.HasPrefix(line, "id: "):
					id = strings.TrimPrefix(line, "id: ")
				case strings.HasPrefix(line, "data: "):
					data = strings.TrimPrefix(line, "data: ")
				}
			}
			resp.Body.Close()
		}
	}()
	return c
}

func (c *chaosSSE) record(name, id string, ev careapi.JobEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == "progress" {
		c.progress++
		return
	}
	if id == "" {
		return
	}
	if _, dup := c.ids[id]; dup {
		c.dups = append(c.dups, id)
		return
	}
	c.ids[id] = ev
	if ev.State == server.StateDone {
		c.completes[ev.Job]++
	}
}

// snapshot copies the collector's counters for assertions.
func (c *chaosSSE) snapshot() (completes map[string]int, dups []string, progress, reconnects int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	completes = make(map[string]int, len(c.completes))
	for k, v := range c.completes {
		completes[k] = v
	}
	return completes, append([]string(nil), c.dups...), c.progress, c.reconnects
}

func (c *chaosSSE) stop() {
	c.cancel()
	<-c.done
}

func (cr *chaosRig) jobs() ([]server.Job, error) {
	resp, err := http.Get("http://" + cr.addr() + "/api/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var list careapi.ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list.Jobs, nil
}

// journal reads the server's full event history (compaction is
// disabled in the chaos fixture, so nothing is ever folded away).
func (cr *chaosRig) journal() []server.Event {
	cr.t.Helper()
	data, err := os.ReadFile(filepath.Join(cr.dataDir, "journal"))
	if err != nil {
		cr.t.Fatal(err)
	}
	var events []server.Event
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		fields := bytes.SplitN(line, []byte(" "), 4)
		if len(fields) != 4 {
			continue // torn tail from a SIGKILL mid-append
		}
		var ev server.Event
		if err := json.Unmarshal(fields[3], &ev); err != nil {
			continue
		}
		events = append(events, ev)
	}
	return events
}

func (cr *chaosRig) journalHas(pred func(server.Event) bool) bool {
	for _, ev := range cr.journal() {
		if pred(ev) {
			return true
		}
	}
	return false
}

// Chaos job shape: ~100ms per job split into many scheduled
// checkpoints, so kills/partitions/drains land mid-run with resumable
// progress behind them.
const (
	wChaosWarmup  = 2000
	wChaosMeasure = 100000
	wChaosEvery   = 2000
	wChaosScale   = 64
)

// workerDirectResult computes the ground truth for one cell: a plain
// unsupervised care.Run on the same checkpoint schedule, no server, no
// leases, no migration.
func workerDirectResult(t *testing.T, workload, pol string) string {
	t.Helper()
	cfg := care.ScaledConfig(1, wChaosScale)
	p, err := policy.Parse(pol)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LLCPolicy = p
	traces := []care.TraceReader{care.MustSPECTrace(workload, 1, wChaosScale)}
	r, err := care.Run(context.Background(), cfg, traces, care.RunOpts{
		Warmup:     wChaosWarmup,
		Measure:    wChaosMeasure,
		Checkpoint: &care.CheckpointOptions{Every: wChaosEvery},
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

// TestWorkerChaosExactlyOnce is the acceptance test for remote
// execution: real care-worker processes are partitioned from the
// server (losing their leases mid-job), SIGKILLed, and drained while
// the server itself is SIGKILLed and restarted mid-campaign. Every
// job must complete exactly once — one complete event in the entire
// journal history — with result bytes identical to an unsupervised
// local run, no matter how many machines the job migrated across.
func TestWorkerChaosExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real worker and server processes")
	}
	root := t.TempDir()
	cr := &chaosRig{
		t:        t,
		root:     root,
		dataDir:  filepath.Join(root, "data"),
		addrFile: filepath.Join(root, "addr"),
	}
	cr.startServer()
	addr := cr.addr()

	// The stream witness rides along for the whole campaign,
	// reconnecting with Last-Event-ID over every server death.
	sse := cr.startSSE()

	// One atomic sweep submission: 2 workloads x 2 policies, every cell
	// capability-constrained so only workers that registered the chaos
	// fleet's envelope may claim it.
	sweep, _ := json.Marshal(map[string]any{
		"kind":      "spec",
		"workloads": []string{"429.mcf", "470.lbm"},
		"policies":  []string{"care", "lru"},
		"cores":     1, "scale": wChaosScale,
		"warmup": wChaosWarmup, "measure": wChaosMeasure,
		"checkpoint_every": wChaosEvery,
		"campaign":         "chaos",
		"constraints":      map[string]any{"min_cores": 4, "labels": []string{"chaos"}},
	})
	resp, err := http.Post("http://"+addr+"/api/v1/jobs", "application/json", bytes.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	var created careapi.SubmitResponse
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if len(created.Jobs) != 4 {
		t.Fatalf("sweep created %d jobs, want 4", len(created.Jobs))
	}

	// Phase 1 — partition: w1 claims a job (its 1st request) and is
	// then cut off from the server forever; its heartbeats never
	// arrive, so the server MUST expire the lease and hand the job to
	// someone else. The partition also swallows w1's complete, which
	// is exactly the lost-write the fencing design exists for.
	w1 := cr.startWorker("w1", "net-partition-after=2,net-partition-ms=600000")
	expireDeadline := time.Now().Add(20 * time.Second)
	for {
		if cr.journalHas(func(ev server.Event) bool {
			return ev.Op == "expire" && ev.Worker == "w1"
		}) {
			break
		}
		if time.Now().After(expireDeadline) {
			t.Fatalf("w1's lease never expired; worker log:\n%s\nserver log:\n%s",
				w1.log.String(), cr.server.log.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	w1.kill()

	// Phase 2 — drain migration: a healthy worker picks up jobs; as
	// soon as one is mid-run we SIGTERM it. The drain protocol stops
	// at the next scheduled checkpoint, uploads it, and requeues the
	// job, so the next claimant resumes from the uploaded artifact.
	// The window between "observed running" and the signal is a few
	// milliseconds against a ~100ms job, but it can race with job
	// completion, so retry with fresh workers until a drain lands
	// mid-job.
	drained := false
	for attempt := 0; attempt < 5 && !drained; attempt++ {
		name := fmt.Sprintf("w2-%d", attempt)
		w := cr.startWorker(name, "")
		runDeadline := time.Now().Add(15 * time.Second)
		for {
			jobs, err := cr.jobs()
			if err == nil {
				for _, jb := range jobs {
					if jb.State == server.StateRunning && jb.Worker == name {
						goto sigterm
					}
				}
				// All jobs may already be done before this worker claims.
				alive := false
				for _, jb := range jobs {
					if !jb.Terminal() {
						alive = true
					}
				}
				if !alive {
					t.Fatal("campaign finished before the drain-migration phase could run")
				}
			}
			if time.Now().After(runDeadline) {
				t.Fatalf("%s never started a job; log:\n%s", name, w.log.String())
			}
			time.Sleep(2 * time.Millisecond)
		}
	sigterm:
		w.drain(15 * time.Second)
		drained = cr.journalHas(func(ev server.Event) bool {
			return ev.Op == "requeue" && strings.Contains(ev.Error, "draining")
		})
	}
	if !drained {
		t.Fatal("no drain ever landed mid-job across 5 attempts")
	}
	// The drain uploaded its final checkpoint before requeueing, and
	// no worker is alive to consume it yet: the server must hold it
	// for the job's next claimant.
	for _, ev := range cr.journal() {
		if ev.Op != "requeue" || !strings.Contains(ev.Error, "draining") {
			continue
		}
		if _, err := os.Stat(filepath.Join(cr.dataDir, "artifacts", ev.Job+".ckpt")); err != nil {
			t.Fatalf("drained job %s left no artifact on the server: %v\nserver log:\n%s",
				ev.Job, err, cr.server.log.String())
		}
	}

	// Phase 3 — server crash mid-campaign: a healthy worker drives the
	// remaining jobs while the server is SIGKILLed and restarted under
	// it. The worker's retry/backoff must bridge the outage, replayed
	// leases must still honour its fencing token, and durable state
	// must lose nothing.
	w3 := cr.startWorker("w3", "")
	time.Sleep(120 * time.Millisecond)
	cr.server.kill()
	cr.startServer()
	cr.addr()

	doneDeadline := time.Now().Add(60 * time.Second)
	var finished []server.Job
	for {
		jobs, err := cr.jobs()
		if err == nil && len(jobs) == 4 {
			all := true
			for _, jb := range jobs {
				if jb.State != server.StateDone {
					all = false
				}
			}
			if all {
				finished = jobs
				break
			}
		}
		if time.Now().After(doneDeadline) {
			t.Fatalf("campaign incomplete; jobs=%+v\nw3 log:\n%s\nserver log:\n%s",
				jobs, w3.log.String(), cr.server.log.String())
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Let the stream witness observe the final completes, then detach
	// it before teardown.
	sseDeadline := time.Now().Add(10 * time.Second)
	for {
		completes, _, _, _ := sse.snapshot()
		if len(completes) == 4 {
			break
		}
		if time.Now().After(sseDeadline) {
			break // asserted (and failed) below with full context
		}
		time.Sleep(20 * time.Millisecond)
	}
	sse.stop()

	// Graceful teardown: worker drains idle, server drains clean.
	w3.drain(15 * time.Second)
	cr.server.drain(20 * time.Second)

	// The journal is the ground truth. Exactly one complete event per
	// job across every partition, kill, migration, and server restart.
	events := cr.journal()
	completes := map[string]int{}
	resultBytes := map[string]string{}
	expires, requeuedByDrain := 0, 0
	for _, ev := range events {
		switch ev.Op {
		case "complete":
			completes[ev.Job]++
			resultBytes[ev.Job] = string(ev.Result)
			if ev.Worker == "w1" {
				t.Fatal("partitioned w1's complete reached the journal; fencing failed")
			}
		case "expire":
			expires++
		case "requeue":
			if strings.Contains(ev.Error, "draining") {
				requeuedByDrain++
			}
		}
	}
	for _, jb := range finished {
		if completes[jb.ID] != 1 {
			t.Fatalf("job %s has %d complete events, want exactly 1", jb.ID, completes[jb.ID])
		}
	}
	if expires == 0 {
		t.Fatal("no lease ever expired; the partition phase proved nothing")
	}
	if requeuedByDrain == 0 {
		t.Fatal("no drain requeue in the journal; the migration phase proved nothing")
	}

	// The stream witness saw the same exactly-once story the journal
	// tells: every done transition once, nothing delivered twice across
	// its forced reconnects, progress watermarks flowing, and at least
	// one resume actually exercised by the server's death.
	sseCompletes, sseDups, sseProgress, sseReconnects := sse.snapshot()
	if len(sseDups) > 0 {
		t.Fatalf("SSE delivered duplicate event ids across resume: %v", sseDups)
	}
	for _, jb := range finished {
		if sseCompletes[jb.ID] != 1 {
			t.Fatalf("SSE observed %d done transitions for %s, want exactly 1 (all: %v)",
				sseCompletes[jb.ID], jb.ID, sseCompletes)
		}
		if jb.Spec.Constraints == nil || len(jb.Spec.Constraints.Labels) == 0 {
			t.Fatalf("job %s lost its constraints across the campaign: %+v", jb.ID, jb.Spec)
		}
		if jb.Spec.Campaign != "chaos" {
			t.Fatalf("job %s lost its campaign label: %+v", jb.ID, jb.Spec)
		}
	}
	if sseProgress == 0 {
		t.Fatal("no progress watermark ever reached the event stream")
	}
	if sseReconnects == 0 {
		t.Fatal("the stream never had to resume; the server-death phase proved nothing for SSE")
	}

	// Byte-identity: each job's journaled result equals an
	// unsupervised run of the same cell, despite mid-job migration
	// between machines via uploaded checkpoints.
	for _, jb := range finished {
		want := workerDirectResult(t, jb.Spec.Workload, jb.Spec.Policy)
		if resultBytes[jb.ID] != want {
			t.Fatalf("job %s (%s/%s) diverged from the unsupervised run:\nremote: %s\ndirect: %s",
				jb.ID, jb.Spec.Workload, jb.Spec.Policy, resultBytes[jb.ID], want)
		}
	}
}

// TestWorkerFlagValidation covers the CLI's error paths without a
// server.
func TestWorkerFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"missing-name", nil, "-name is required"},
		{"bad-faults", []string{"-name", "w", "-faults", "gremlins=1"}, "unknown fault"},
		{"reserved-name", []string{"-name", careapi.LocalWorker}, "reserved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "CARE_WORKER_REEXEC=1")
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("exit = %v (%s), want code 2", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output %q missing %q", out, tc.want)
			}
		})
	}
}
