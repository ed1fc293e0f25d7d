package worker_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"care/careapi"
	"care/internal/sim"
	"care/internal/worker"
)

// TestRejectedArtifactUploadsAreLogged: against a server that rejects
// every checkpoint upload, the worker logs the heartbeat's upload
// failure and the drain's final one under the job's ID instead of
// dropping them.
func TestRejectedArtifactUploadsAreLogged(t *testing.T) {
	var (
		mu      sync.Mutex
		claimed bool
	)
	settled := make(chan careapi.FailRequest, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/api/v1/worker/claim":
			mu.Lock()
			defer mu.Unlock()
			if claimed {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			claimed = true
			json.NewEncoder(w).Encode(careapi.ClaimResponse{Job: careapi.Job{
				ID: "j000042", State: careapi.StateRunning, Attempts: 1, Worker: "w1",
				Spec: careapi.JobSpec{
					Kind: "spec", Workload: "429.mcf", Policy: "care", Cores: 1,
					Scale: 64, Warmup: 1000, Measure: 2_000_000, CheckpointEvery: 20_000,
				},
			}})
		case r.URL.Path == "/api/v1/worker/heartbeat":
			json.NewEncoder(w).Encode(careapi.HeartbeatResponse{LeaseMSLeft: 30_000})
		case r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/artifact"):
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(careapi.Err(careapi.CodeArtifactRejected, "rejected by the test server"))
		case r.URL.Path == "/api/v1/worker/fail":
			var req careapi.FailRequest
			json.NewDecoder(r.Body).Decode(&req)
			json.NewEncoder(w).Encode(careapi.StatusResponse{Status: req.Kind})
			settled <- req
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	logs := &syncBuffer{}
	w, err := worker.New(worker.Config{
		Server: srv.URL, Name: "w1", DataDir: t.TempDir(),
		Poll: 10 * time.Millisecond, Heartbeat: 10 * time.Millisecond,
		Log: log.New(logs, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, drain := context.WithCancelCause(context.Background())
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		w.Run(ctx)
	}()
	// Drain once a heartbeat's rejected upload is logged: the job stops
	// at its next checkpoint, uploads it, and requeues.
	heartbeatLine := "j000042 artifact upload: server rejected request (400 " + careapi.CodeArtifactRejected
	for deadline := time.Now().Add(30 * time.Second); !strings.Contains(logs.String(), heartbeatLine); {
		if time.Now().After(deadline) {
			t.Fatalf("no logged heartbeat upload rejection:\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	drain(sim.ErrDrain)
	select {
	case req := <-settled:
		if req.Kind != "requeue" {
			t.Fatalf("drained job settled as %q, want requeue", req.Kind)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drained job never settled")
	}
	<-exited

	if drainLine := "j000042 drain artifact upload: server rejected request (400 " + careapi.CodeArtifactRejected; !strings.Contains(logs.String(), drainLine) {
		t.Errorf("log has no %q line:\n%s", drainLine, logs.String())
	}
}

// syncBuffer is a bytes.Buffer that the worker may write while the
// test reads it.
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
