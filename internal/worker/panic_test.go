package worker

import (
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
	"care/internal/faultinject"
)

// TestJobThatAlwaysPanicsEndsFailed runs one job on a fresh worker per
// attempt, each carrying worker-panic=1, so every attempt panics. The
// stub server hands the job out once per attempt the test allows; the
// panics must requeue it maxPanicRequeues times and then fail it.
func TestJobThatAlwaysPanicsEndsFailed(t *testing.T) {
	var (
		mu       sync.Mutex
		allowed  int // attempts the test has released
		attempt  int // attempts handed out
		outcomes = make(chan careapi.FailRequest, 1)
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/v1/worker/claim":
			mu.Lock()
			defer mu.Unlock()
			if attempt == allowed {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			attempt++
			json.NewEncoder(w).Encode(careapi.ClaimResponse{Job: careapi.Job{
				ID: "j000001", State: careapi.StateRunning, Attempts: attempt, Worker: "w1",
				Spec: careapi.JobSpec{Kind: "spec", Workload: "429.mcf", Policy: "care", Cores: 1, Measure: 1000},
			}})
		case "/api/v1/worker/fail":
			var req careapi.FailRequest
			json.NewDecoder(r.Body).Decode(&req)
			json.NewEncoder(w).Encode(careapi.StatusResponse{Status: req.Kind})
			outcomes <- req
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	faults, err := faultinject.ParseSpec("worker-panic=1")
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= maxPanicRequeues+1; n++ {
		w, err := New(Config{
			Server: srv.URL, Name: "w1", DataDir: t.TempDir(), Poll: time.Millisecond,
			Faults: &faults, Log: log.New(io.Discard, "", 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		allowed = n
		mu.Unlock()
		ctx, cancel := context.WithCancel(context.Background())
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			w.Run(ctx)
		}()
		var got careapi.FailRequest
		select {
		case got = <-outcomes:
		case <-time.After(10 * time.Second):
			t.Fatalf("attempt %d never settled", n)
		}
		cancel()
		<-exited

		want := "requeue"
		if n > maxPanicRequeues {
			want = "fail"
		}
		if got.Kind != want || got.Token != n || !strings.HasPrefix(got.Reason, "worker panic") {
			t.Fatalf("attempt %d settled as %+v, want %s with a worker-panic reason", n, got, want)
		}
		if w.Panics() != 1 {
			t.Fatalf("attempt %d: worker counted %d panics, want 1", n, w.Panics())
		}
	}
}
