package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startRemoteServer boots a server with no in-process worker, so
// submitted jobs sit pending until a (test-driven) remote claims them.
func startRemoteServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := New(Config{
		Addr: "127.0.0.1:0", DataDir: dir, NoLocalWorkers: true,
		NoSync: true, LeaseCheckEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// httpJSONErr is httpJSON but also decodes the typed APIError body on
// non-2xx statuses.
func httpJSONErr(t *testing.T, method, url string, body any, out any) (int, APIError) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr APIError
	if resp.StatusCode >= 400 {
		json.NewDecoder(resp.Body).Decode(&apiErr)
	} else if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode, apiErr
}

func claimHTTP(t *testing.T, base, worker string, ttlMS int64, idem string) (ClaimResponse, int) {
	t.Helper()
	var cr ClaimResponse
	code, _ := httpJSONErr(t, "POST", base+"/api/v1/worker/claim",
		ClaimRequest{Worker: worker, TTLMS: ttlMS, Idem: idem}, &cr)
	return cr, code
}

// TestWorkerAPIFencingOverHTTP is the end-to-end fencing proof at the
// wire level: a worker that lost its lease gets HTTP 409 with the
// machine-readable code "stale_lease" when it tries to complete, and
// the journal records exactly one completion — the new holder's.
func TestWorkerAPIFencingOverHTTP(t *testing.T) {
	dir := t.TempDir()
	s := startRemoteServer(t, dir)
	defer s.Shutdown(t.Context())
	base := "http://" + s.Addr()

	if code := httpJSON(t, "POST", base+"/api/v1/jobs", tinySubmit(), nil); code != http.StatusCreated {
		t.Fatalf("submit: %d", code)
	}

	// w1 claims with a very short lease and then goes silent.
	c1, code := claimHTTP(t, base, "w1", 30, "")
	if code != http.StatusOK {
		t.Fatalf("w1 claim: %d", code)
	}
	// The lease sweep expires it; w2 claims the same job at a higher
	// fencing token.
	var c2 ClaimResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		var cd int
		c2, cd = claimHTTP(t, base, "w2", 60_000, "")
		if cd == http.StatusOK && c2.Job.ID == c1.Job.ID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("w2 never claimed expired job (last status %d)", cd)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c2.Job.Attempts <= c1.Job.Attempts {
		t.Fatalf("reclaim token %d not above original %d", c2.Job.Attempts, c1.Job.Attempts)
	}

	// w2 completes.
	code, _ = httpJSONErr(t, "POST", base+"/api/v1/worker/complete", CompleteRequest{
		Worker: "w2", Job: c2.Job.ID, Token: c2.Job.Attempts,
		Result: json.RawMessage(`{"winner":"w2"}`),
	}, nil)
	if code != http.StatusOK {
		t.Fatalf("w2 complete: %d", code)
	}

	// w1 wakes up and tries to write its result back: must be fenced
	// with the typed stale_lease error, not accepted, not a 500.
	code, apiErr := httpJSONErr(t, "POST", base+"/api/v1/worker/complete", CompleteRequest{
		Worker: "w1", Job: c1.Job.ID, Token: c1.Job.Attempts,
		Result: json.RawMessage(`{"winner":"w1"}`),
	}, nil)
	if code != http.StatusConflict || apiErr.Code != CodeStaleLease {
		t.Fatalf("stale complete = %d %+v, want 409 %s", code, apiErr, CodeStaleLease)
	}
	// Late heartbeats from the fenced holder are rejected the same way.
	code, apiErr = httpJSONErr(t, "POST", base+"/api/v1/worker/heartbeat", HeartbeatRequest{
		Worker: "w1", Job: c1.Job.ID, Token: c1.Job.Attempts,
	}, nil)
	if code != http.StatusConflict || apiErr.Code != CodeStaleLease {
		t.Fatalf("stale heartbeat = %d %+v, want 409 %s", code, apiErr, CodeStaleLease)
	}

	// The journal is the ground truth: exactly one complete event, and
	// it names w2 with w2's token.
	s.Shutdown(t.Context())
	_, events, err := OpenJournal(dir+"/journal", nil)
	if err != nil {
		t.Fatal(err)
	}
	completes := 0
	for _, ev := range events {
		if ev.Op == opComplete {
			completes++
			if ev.Worker != "w2" || ev.Attempt != c2.Job.Attempts {
				t.Fatalf("complete event attributed to %q token %d, want w2 token %d",
					ev.Worker, ev.Attempt, c2.Job.Attempts)
			}
			if !strings.Contains(string(ev.Result), "w2") {
				t.Fatalf("journaled result %s is not w2's", ev.Result)
			}
		}
	}
	if completes != 1 {
		t.Fatalf("journal has %d complete events, want exactly 1", completes)
	}
}

func TestWorkerAPIClaimEmptyQueueAndIdem(t *testing.T) {
	s := startRemoteServer(t, t.TempDir())
	defer s.Shutdown(t.Context())
	base := "http://" + s.Addr()

	if _, code := claimHTTP(t, base, "w1", 0, ""); code != http.StatusNoContent {
		t.Fatalf("claim on empty queue = %d, want 204", code)
	}
	if code := httpJSON(t, "POST", base+"/api/v1/jobs", tinySubmit(), nil); code != http.StatusCreated {
		t.Fatalf("submit: %d", code)
	}
	c1, code := claimHTTP(t, base, "w1", 60_000, "idem-1")
	if code != http.StatusOK {
		t.Fatalf("claim: %d", code)
	}
	// A retried claim (duplicated request, lost reply) with the same
	// idempotency key returns the SAME lease instead of burning it.
	c2, code := claimHTTP(t, base, "w1", 60_000, "idem-1")
	if code != http.StatusOK || c2.Job.ID != c1.Job.ID || c2.Job.Attempts != c1.Job.Attempts {
		t.Fatalf("idem replay = %d %+v, want original lease %+v", code, c2.Job, c1.Job)
	}
}

func TestWorkerAPIArtifactRoundTripAndLeaseChecks(t *testing.T) {
	s := startRemoteServer(t, t.TempDir())
	defer s.Shutdown(t.Context())
	base := "http://" + s.Addr()

	sub := tinySubmit()
	sub.Policies = []string{"care"}
	if code := httpJSON(t, "POST", base+"/api/v1/jobs", sub, nil); code != http.StatusCreated {
		t.Fatalf("submit: %d", code)
	}
	c, code := claimHTTP(t, base, "w1", 60_000, "")
	if code != http.StatusOK {
		t.Fatalf("claim: %d", code)
	}
	if c.HasArtifact {
		t.Fatal("fresh job claims to have an artifact")
	}
	artURL := func(worker string, token int) string {
		return fmt.Sprintf("%s/api/v1/worker/jobs/%s/artifact?worker=%s&token=%d",
			base, c.Job.ID, worker, token)
	}

	// GET with no artifact → typed 404.
	code, apiErr := httpJSONErr(t, "GET", artURL("w1", c.Job.Attempts), nil, nil)
	if code != http.StatusNotFound || apiErr.Code != CodeArtifactNotFound {
		t.Fatalf("GET missing artifact = %d %+v", code, apiErr)
	}

	put := func(url, body string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Garbage upload is rejected by structural verification.
	if code := put(artURL("w1", c.Job.Attempts), "not a checkpoint"); code != http.StatusBadRequest {
		t.Fatalf("garbage upload = %d, want 400", code)
	}

	// A wrong fencing token cannot upload at all.
	if code := put(artURL("w1", c.Job.Attempts+1), "whatever"); code != http.StatusConflict {
		t.Fatalf("upload with stale token = %d, want 409", code)
	}

	// A valid checkpoint is stored and served back byte for byte.
	ckpt := testCheckpoint(t, 7)
	if code := put(artURL("w1", c.Job.Attempts), string(ckpt)); code != http.StatusOK {
		t.Fatalf("valid upload = %d, want 200", code)
	}
	resp, err := http.Get(artURL("w1", c.Job.Attempts))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, ckpt) {
		t.Fatalf("GET artifact = %d, %d bytes (err %v), want 200 and the %d uploaded bytes",
			resp.StatusCode, len(got), err, len(ckpt))
	}

	// Requeued, the job's next claim is told to resume from it.
	if code := httpJSON(t, "POST", base+"/api/v1/worker/fail", FailRequest{
		Worker: "w1", Job: c.Job.ID, Token: c.Job.Attempts, Kind: "requeue", Reason: "draining",
	}, nil); code != http.StatusOK {
		t.Fatalf("requeue: %d", code)
	}
	c2, code := claimHTTP(t, base, "w2", 60_000, "")
	if code != http.StatusOK || c2.Job.ID != c.Job.ID || !c2.HasArtifact {
		t.Fatalf("next claim = %d %s has_artifact=%v, want %s with its artifact",
			code, c2.Job.ID, c2.HasArtifact, c.Job.ID)
	}
}

// TestHealthzAndMetricsExposeLeaseState is the observability
// satellite: the fleet/lease gauges must reflect a live remote claim.
func TestHealthzAndMetricsExposeLeaseState(t *testing.T) {
	s := startRemoteServer(t, t.TempDir())
	defer s.Shutdown(t.Context())
	base := "http://" + s.Addr()

	if code := httpJSON(t, "POST", base+"/api/v1/jobs", tinySubmit(), nil); code != http.StatusCreated {
		t.Fatalf("submit: %d", code)
	}
	if _, code := claimHTTP(t, base, "w-obs", 60_000, ""); code != http.StatusOK {
		t.Fatalf("claim: %d", code)
	}

	var h Health
	if code := httpJSON(t, "GET", base+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h.ActiveLeases != 1 {
		t.Fatalf("healthz active_leases = %d, want 1", h.ActiveLeases)
	}
	found := false
	for _, w := range h.Fleet {
		if w.Name == "w-obs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("healthz fleet %+v missing w-obs", h.Fleet)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{
		"care_server_active_leases 1",
		"care_server_lease_expirations_total",
		"care_server_artifact_store_files",
		"care_server_artifact_store_bytes",
		`care_server_worker_last_heartbeat_age_seconds{worker="w-obs"}`,
		// Queue-only: no in-process slots, whatever Workers defaulted to.
		"care_server_workers 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}
