package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"care/careapi"
	"care/internal/harness"
)

// startTestServer boots a server on a free port over dir.
func startTestServer(t *testing.T, dir string, workers int) *Server {
	t.Helper()
	s, err := New(Config{Addr: "127.0.0.1:0", DataDir: dir, Workers: workers, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func httpJSON(t *testing.T, method, url string, body any, out any) int {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// tinySubmit is a sweep that finishes in well under a second per job.
func tinySubmit() SubmitRequest {
	return SubmitRequest{
		JobSpec: JobSpec{
			Kind: "spec", Workload: "429.mcf", Cores: 1,
			Scale: 64, Warmup: 1000, Measure: 4000, CheckpointEvery: 1000,
		},
		Policies: []string{"care", "lru"},
	}
}

func waitAllTerminal(t *testing.T, base string, deadline time.Duration) []Job {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		var list careapi.ListResponse
		httpJSON(t, "GET", base+"/api/v1/jobs", nil, &list)
		allDone := len(list.Jobs) > 0
		for _, jb := range list.Jobs {
			if !jb.Terminal() {
				allDone = false
			}
		}
		if allDone {
			return list.Jobs
		}
		if time.Now().After(stop) {
			t.Fatalf("jobs still unfinished after %s: %+v", deadline, list.Jobs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServerRunsSweepToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s := startTestServer(t, t.TempDir(), 2)
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()

	var created careapi.SubmitResponse
	if code := httpJSON(t, "POST", base+"/api/v1/jobs", tinySubmit(), &created); code != http.StatusCreated {
		t.Fatalf("submit returned %d", code)
	}
	if len(created.Jobs) != 2 {
		t.Fatalf("sweep created %d jobs, want 2 (care, lru)", len(created.Jobs))
	}
	jobs := waitAllTerminal(t, base, 30*time.Second)
	for _, jb := range jobs {
		if jb.State != StateDone {
			t.Fatalf("job %s ended %s (%s), want done", jb.ID, jb.State, jb.Error)
		}
		var res struct{ Policy string }
		if err := json.Unmarshal(jb.Result, &res); err != nil || res.Policy == "" {
			t.Fatalf("job %s result unparseable: %v (%s)", jb.ID, err, jb.Result)
		}
	}

	// Telemetry: each job contributed a tagged series.
	if s.registry.Len() < 2 {
		t.Fatalf("registry holds %d series, want >= 2", s.registry.Len())
	}
	for _, series := range s.registry.Series() {
		if !strings.HasPrefix(series.Meta.Tag, "j0000") {
			t.Fatalf("series tag %q is not job-prefixed", series.Meta.Tag)
		}
	}

	// Health and metrics reflect the finished campaign.
	var h Health
	httpJSON(t, "GET", base+"/healthz", nil, &h)
	if h.Jobs[StateDone] != 2 || h.QueueDepth != 0 || len(h.Fleet) != 1 ||
		h.Fleet[0].Name != careapi.LocalWorker || h.Fleet[0].Caps == nil || h.Fleet[0].Caps.Slots != 2 {
		t.Fatalf("healthz = %+v", h)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`care_server_jobs{state="done"} 2`, "care_server_workers 2\n"} {
		if !strings.Contains(metrics.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics.String())
		}
	}

	var rep DegradationReport
	httpJSON(t, "GET", base+"/api/v1/report", nil, &rep)
	if rep.Completed != 2 || rep.Dropped != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestServerValidatesSubmissions(t *testing.T) {
	s := startTestServer(t, t.TempDir(), 1)
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()

	bad := tinySubmit()
	bad.Policies = []string{"care", "no-such-policy"}
	var errBody careapi.Error
	if code := httpJSON(t, "POST", base+"/api/v1/jobs", bad, &errBody); code != http.StatusBadRequest {
		t.Fatalf("invalid sweep returned %d", code)
	}
	// All-or-nothing: the valid cell must not have been committed.
	var list careapi.ListResponse
	httpJSON(t, "GET", base+"/api/v1/jobs", nil, &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("half-submitted sweep: %+v", list.Jobs)
	}
	if code := httpJSON(t, "GET", base+"/api/v1/jobs/j999999", nil, &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown job returned %d", code)
	}
}

// TestServerRejectsUnboundedSpecs checks that specs the harness could
// never run, or that would size the LLC past any host's memory, get a
// typed 400 at submission and never become jobs a worker could claim.
func TestServerRejectsUnboundedSpecs(t *testing.T) {
	s := startTestServer(t, t.TempDir(), 1)
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()

	cases := map[string]func(*SubmitRequest){
		"million cores":      func(r *SubmitRequest) { r.Cores, r.Scale = 1_000_000, 1 },
		"core sweep":         func(r *SubmitRequest) { r.CoreCounts = []int{4, harness.MaxCores + 1} },
		"unknown spec":       func(r *SubmitRequest) { r.Workload = "999.nope" },
		"gap without kernel": func(r *SubmitRequest) { r.Kind, r.Workload = "gap", "orkut" },
		"unknown kernel":     func(r *SubmitRequest) { r.Kind, r.Workload = "gap", "dfs-or" },
		"unknown dataset":    func(r *SubmitRequest) { r.Kind, r.Workload = "gap", "bfs-xx" },
		"huge sweep": func(r *SubmitRequest) {
			// 2 policies × 50 × 50 valid cells.
			for i := 0; i < 50; i++ {
				r.Workloads = append(r.Workloads, "429.mcf")
				r.CoreCounts = append(r.CoreCounts, 1)
			}
		},
	}
	for name, mutate := range cases {
		req := tinySubmit()
		mutate(&req)
		var errBody careapi.Error
		code := httpJSON(t, "POST", base+"/api/v1/jobs", req, &errBody)
		if code != http.StatusBadRequest || errBody.Code != careapi.CodeBadRequest {
			t.Errorf("%s: got %d %+v, want 400 %s", name, code, errBody, careapi.CodeBadRequest)
		}
	}
	var list careapi.ListResponse
	httpJSON(t, "GET", base+"/api/v1/jobs", nil, &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("rejected specs became jobs: %+v", list.Jobs)
	}

	// The bounds themselves are accepted.
	ok := tinySubmit()
	ok.Policies = nil
	ok.Policy, ok.Cores, ok.Kind, ok.Workload = "lru", harness.MaxCores, "gap", "bfs-orkut"
	body, _ := json.Marshal(ok)
	if specs, err := decodeSubmit(bytes.NewReader(body)); err != nil || len(specs) != 1 {
		t.Fatalf("in-bounds spec rejected: %v", err)
	}
}

func TestServerCancelPendingJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	// One worker and two jobs: the second stays pending long enough to
	// cancel while the first runs.
	s := startTestServer(t, t.TempDir(), 1)
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()
	req := tinySubmit()
	req.Warmup, req.Measure, req.CheckpointEvery = 2000, 60000, 4000
	var created careapi.SubmitResponse
	httpJSON(t, "POST", base+"/api/v1/jobs", req, &created)
	victim := created.Jobs[1].ID
	var got Job
	if code := httpJSON(t, "DELETE", base+"/api/v1/jobs/"+victim, nil, &got); code != http.StatusOK {
		t.Fatalf("cancel returned %d", code)
	}
	if got.State != StateCancelled {
		t.Fatalf("cancelled job state = %s", got.State)
	}
	jobs := waitAllTerminal(t, base, 60*time.Second)
	states := map[string]string{}
	for _, jb := range jobs {
		states[jb.ID] = jb.State
	}
	if states[created.Jobs[0].ID] != StateDone || states[victim] != StateCancelled {
		t.Fatalf("final states = %v", states)
	}
}

func TestServerDrainRequeuesAndRestartResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	// Baseline result for the job the drain will interrupt.
	ref := startTestServer(t, t.TempDir(), 1)
	refReq := drainSubmit()
	var refCreated careapi.SubmitResponse
	httpJSON(t, "POST", "http://"+ref.Addr()+"/api/v1/jobs", refReq, &refCreated)
	refJobs := waitAllTerminal(t, "http://"+ref.Addr(), 120*time.Second)
	if refJobs[0].State != StateDone {
		t.Fatalf("baseline job ended %s: %s", refJobs[0].State, refJobs[0].Error)
	}
	ref.Shutdown(context.Background())

	// Instance 1: submit the same job, then drain mid-run.
	s1 := startTestServer(t, dir, 1)
	var created careapi.SubmitResponse
	httpJSON(t, "POST", "http://"+s1.Addr()+"/api/v1/jobs", drainSubmit(), &created)
	id := created.Jobs[0].ID
	// Wait for it to actually start.
	for start := time.Now(); ; {
		jb, err := s1.q.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if jb.State == StateRunning {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("job never started: %+v", jb)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	// The journal must record the drain as a requeue, durably.
	q, err := OpenQueue(dir+"/journal", nil)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := q.Get(id)
	q.Close()
	if err != nil || jb.State != StatePending {
		t.Fatalf("after drain job = %+v err=%v, want pending", jb, err)
	}

	// Instance 2: resumes from the drained checkpoint and finishes
	// with the baseline's exact bytes.
	s2 := startTestServer(t, dir, 1)
	defer s2.Shutdown(context.Background())
	jobs := waitAllTerminal(t, "http://"+s2.Addr(), 120*time.Second)
	if jobs[0].State != StateDone {
		t.Fatalf("resumed job ended %s: %s", jobs[0].State, jobs[0].Error)
	}
	if string(jobs[0].Result) != string(refJobs[0].Result) {
		t.Fatalf("drained+resumed result diverged from uninterrupted run:\n%s\nvs\n%s",
			jobs[0].Result, refJobs[0].Result)
	}
	var h Health
	httpJSON(t, "GET", "http://"+s2.Addr()+"/healthz", nil, &h)
	if h.Jobs[StateDone] != 1 {
		t.Fatalf("healthz after resume = %+v", h)
	}
}

// drainSubmit is a single job big enough to straddle a drain: several
// checkpoint segments of real simulation.
func drainSubmit() SubmitRequest {
	return SubmitRequest{JobSpec: JobSpec{
		Kind: "spec", Workload: "429.mcf", Policy: "care", Cores: 1,
		Scale: 64, Warmup: 2000, Measure: 40000, CheckpointEvery: 4000,
	}}
}

// TestReadyzFlipsWhileDraining needs a running job to hold Shutdown
// open; covered implicitly above, so here just the idle fast path.
func TestReadyzIdle(t *testing.T) {
	s := startTestServer(t, t.TempDir(), 1)
	base := "http://" + s.Addr()
	var body struct{ Status string }
	if code := httpJSON(t, "GET", base+"/readyz", nil, &body); code != http.StatusOK || body.Status != "ready" {
		t.Fatalf("readyz = %d %+v", code, body)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := fetchCode(base + "/readyz"); code != 0 && code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown = %d", code)
	}
}

// fetchCode returns the status code, or 0 on connection error (the
// listener may already be down, which is fine).
func fetchCode(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}
