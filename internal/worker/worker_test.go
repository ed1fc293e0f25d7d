package worker_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"care/careapi"
	"care/internal/faultinject"
	"care/internal/server"
	"care/internal/worker"
)

// startServer boots a care-server over dir with the given number of
// in-process worker slots (0 = queue-only) and returns its base URL.
func startServer(t *testing.T, dir string, slots int) string {
	t.Helper()
	s, err := server.New(server.Config{
		Addr: "127.0.0.1:0", DataDir: dir, Workers: slots,
		NoLocalWorkers: slots == 0, NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return "http://" + s.Addr()
}

// submit posts a two-job sweep of tiny simulations.
func submit(t *testing.T, base string) {
	t.Helper()
	body, _ := json.Marshal(careapi.SubmitRequest{
		JobSpec: careapi.JobSpec{
			Kind: "spec", Workload: "429.mcf", Cores: 1,
			Scale: 64, Warmup: 1000, Measure: 4000, CheckpointEvery: 1000,
		},
		Policies: []string{"care", "lru"},
	})
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
}

// waitTerminal polls until every job is terminal.
func waitTerminal(t *testing.T, base string) []careapi.Job {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(base + "/api/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list careapi.ListResponse
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		open := 0
		for _, jb := range list.Jobs {
			if !jb.Terminal() {
				open++
			}
		}
		if open == 0 {
			return list.Jobs
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs still open: %+v", list.Jobs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func quietLog() *log.Logger { return log.New(io.Discard, "", 0) }

func TestWorkerPanicRequeuesAndKeepsServing(t *testing.T) {
	dir := t.TempDir()
	base := startServer(t, dir, 0)
	submit(t, base)

	faults, err := faultinject.ParseSpec("worker-panic=1")
	if err != nil {
		t.Fatal(err)
	}
	w, err := worker.New(worker.Config{
		Server: base, Name: "w1", DataDir: t.TempDir(),
		Poll: 10 * time.Millisecond, Faults: &faults, Log: quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		w.Run(ctx)
	}()
	jobs := waitTerminal(t, base)
	cancel()
	<-exited

	attempts := 0
	for _, jb := range jobs {
		if jb.State != careapi.StateDone {
			t.Fatalf("job %s ended %s: %s", jb.ID, jb.State, jb.Error)
		}
		attempts += jb.Attempts
	}
	if attempts != 3 || w.Panics() != 1 {
		t.Fatalf("%d attempts over 2 jobs and %d panics, want 3 and 1", attempts, w.Panics())
	}
	if completed, _, _ := w.Report().Counts(); completed != 2 {
		t.Fatalf("report counts %d completed runs, want 2", completed)
	}
	// The panic left its durable trace: a requeue naming it.
	journal, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	requeued := false
	for _, line := range bytes.Split(bytes.TrimSpace(journal), []byte("\n")) {
		var ev server.Event
		if err := json.Unmarshal(bytes.SplitN(line, []byte(" "), 4)[3], &ev); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		requeued = requeued || (ev.Op == "requeue" && strings.HasPrefix(ev.Error, "worker panic"))
	}
	if !requeued {
		t.Fatalf("no worker-panic requeue in the journal:\n%s", journal)
	}
}

func TestRemoteClaimUnderLocalNameIsRejected(t *testing.T) {
	base := startServer(t, t.TempDir(), 1)
	c := worker.NewClient(base, nil, 1)
	_, _, err := c.Claim(context.Background(), careapi.LocalWorker, 0, "k1", nil)
	var re *worker.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest || re.Code != careapi.CodeBadRequest {
		t.Fatalf("claim as %q = %v, want a bad_request rejection", careapi.LocalWorker, err)
	}
	// The server's own worker, under the same name, still runs jobs.
	submit(t, base)
	for _, jb := range waitTerminal(t, base) {
		if jb.State != careapi.StateDone || jb.Worker != careapi.LocalWorker {
			t.Fatalf("job %s ended %s under %q: %s", jb.ID, jb.State, jb.Worker, jb.Error)
		}
	}
}
