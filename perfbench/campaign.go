package main

// The campaign workload: a queue-only care-server (journal fsync on)
// and one in-process care-worker with GOMAXPROCS slots. The timed phase
// submits one sweep of small 1-core simulations in one POST, drains it,
// and repeats until the time is up. Job transitions are observed on
// the server's SSE stream.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"care/careapi"
	"care/internal/harness"
	"care/internal/server"
	"care/internal/sim"
	"care/internal/worker"
)

// campaignSpec sizes the campaign workload. One sweep is every workload
// × every policy; the set-up runs one sweep, and the timed phase runs
// the same cells again in every sweep, so identical cells must return
// identical bytes.
type campaignSpec struct {
	workloads       []string
	policies        []string
	warmup, measure uint64
	scale           int
	// poll is the worker's idle claim period.
	poll time.Duration
	// sweepSeconds is the nominal length of one sweep. The timed phase
	// runs a fixed number of sweeps for its length, so the jobs and the
	// memory they hold do not depend on host speed.
	sweepSeconds float64
}

// sweeps is how many sweeps a timed phase of the given length runs.
func (s campaignSpec) sweeps(seconds float64) int {
	return max(1, int(math.Round(seconds/s.sweepSeconds)))
}

var campaign = campaignSpec{
	workloads:    []string{"429.mcf", "401.bzip2", "433.milc", "470.lbm", "450.soplex", "482.sphinx3", "473.astar", "403.gcc"},
	policies:     []string{"lru", "ship++", "care"},
	warmup:       5_000,
	measure:      20_000,
	scale:        16,
	poll:         10 * time.Millisecond,
	sweepSeconds: 0.6,
}

func tinyCampaign(s campaignSpec) campaignSpec {
	s.workloads = s.workloads[:2]
	s.warmup, s.measure = 1_000, 4_000
	return s
}

// cellKey identifies a sweep cell; equal keys must give equal results.
func cellKey(s *careapi.JobSpec) string { return s.Workload + "/" + s.Policy }

// sweepRequest builds one sweep. The seed only permutes the order of
// the workloads, so every seed runs the same work.
func sweepRequest(s campaignSpec, label string, seed uint64) careapi.SubmitRequest {
	list := append([]string(nil), s.workloads...)
	rng := seed*0x9e3779b97f4a7c15 + 1
	for i := len(list) - 1; i > 0; i-- {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		j := int(rng % uint64(i+1))
		list[i], list[j] = list[j], list[i]
	}
	return careapi.SubmitRequest{
		JobSpec: careapi.JobSpec{
			Kind: "spec", Cores: 1, Prefetch: true, Scale: s.scale,
			Warmup: s.warmup, Measure: s.measure, Campaign: label,
		},
		Workloads: list,
		Policies:  s.policies,
	}
}

// ---- the SSE observer ----

// jobTrack is what the event stream showed for one job.
type jobTrack struct {
	claims, dones   int
	state           string
	claimAt, doneAt time.Time
}

// sseStream follows GET /api/v1/jobs/events and records, per job, when
// it was claimed and when it was done.
type sseStream struct {
	resp    *http.Response
	mu      sync.Mutex
	jobs    map[string]*jobTrack
	events  int
	changed chan struct{} // capacity 1: a pending wake-up
	done    chan struct{}
}

func openStream(hc *http.Client, base string) (*sseStream, error) {
	resp, err := hc.Get(base + "/api/v1/jobs/events")
	if err != nil {
		return nil, fmt.Errorf("open event stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("open event stream: %s", resp.Status)
	}
	st := &sseStream{resp: resp, jobs: map[string]*jobTrack{},
		changed: make(chan struct{}, 1), done: make(chan struct{})}
	sc := bufio.NewScanner(resp.Body)
	// The server subscribes before it writes its first comment, so
	// every event after that line reaches this stream.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		resp.Body.Close()
		return nil, fmt.Errorf("event stream did not open: %v", sc.Err())
	}
	go st.read(sc)
	return st, nil
}

func (st *sseStream) read(sc *bufio.Scanner) {
	defer close(st.done)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		at := time.Now()
		var ev careapi.JobEvent
		if json.Unmarshal([]byte(data), &ev) != nil {
			continue
		}
		st.mu.Lock()
		st.events++
		if ev.Op != "progress" {
			jt := st.jobs[ev.Job]
			if jt == nil {
				jt = &jobTrack{}
				st.jobs[ev.Job] = jt
			}
			jt.state = ev.State
			switch ev.State {
			case careapi.StateRunning:
				if jt.claims++; jt.claims == 1 {
					jt.claimAt = at
				}
			case careapi.StateDone:
				if jt.dones++; jt.dones == 1 {
					jt.doneAt = at
				}
			}
		}
		st.mu.Unlock()
		select {
		case st.changed <- struct{}{}:
		default:
		}
	}
}

// wait blocks until every job in ids is terminal on the stream.
func (st *sseStream) wait(ids []string, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		st.mu.Lock()
		open := 0
		for _, id := range ids {
			jt := st.jobs[id]
			if jt == nil || (jt.state != careapi.StateDone && jt.state != careapi.StateFailed && jt.state != careapi.StateCancelled) {
				open++
			}
		}
		st.mu.Unlock()
		if open == 0 {
			return nil
		}
		select {
		case <-st.changed:
		case <-st.done:
			return fmt.Errorf("event stream ended with %d jobs open", open)
		case <-deadline.C:
			return fmt.Errorf("%d jobs still open after %s", open, timeout)
		}
	}
}

func (st *sseStream) eventCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.events
}

// track returns a copy of a job's record.
func (st *sseStream) track(id string) jobTrack {
	st.mu.Lock()
	defer st.mu.Unlock()
	if jt := st.jobs[id]; jt != nil {
		return *jt
	}
	return jobTrack{}
}

// ---- worker→server call timing (traced runs) ----

// routeTimer wraps the worker's HTTP transport and times each call by
// route.
type routeTimer struct {
	base http.RoundTripper

	mu            sync.Mutex
	rtt           map[string][]float64 // route → ms
	claimEmpty    int
	heartbeats    int
	artifactBytes int64
	completeAt    map[string]time.Time // job → complete call sent
}

func newRouteTimer() *routeTimer {
	return &routeTimer{rtt: map[string][]float64{}, completeAt: map[string]time.Time{}}
}

func (t *routeTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	route := path.Base(req.URL.Path) // claim, heartbeat, complete, fail, artifact
	var job string
	if route == "complete" && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var cr careapi.CompleteRequest
			if json.NewDecoder(body).Decode(&cr) == nil {
				job = cr.Job
			}
			body.Close()
		}
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t1 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		return resp, err
	}
	switch {
	case route == "claim" && resp.StatusCode == http.StatusNoContent:
		t.claimEmpty++
		return resp, nil
	case route == "heartbeat":
		t.heartbeats++
	case route == "artifact" && req.Method == http.MethodPut:
		t.artifactBytes += req.ContentLength
	case route == "complete" && job != "":
		t.completeAt[job] = t0
	}
	t.rtt[route] = append(t.rtt[route], ms(t1.Sub(t0)))
	return resp, nil
}

// ---- one server + worker ----

// fleet is a running care-server with one care-worker and the
// benchmark's event stream.
type fleet struct {
	srv    *server.Server
	base   string
	hc     *http.Client
	stream *sseStream
	stop   context.CancelFunc
	exited chan struct{}
}

// startFleet starts the server and the worker and opens the event
// stream. rt, when non-nil, wraps the worker's transport.
func startFleet(s campaignSpec, dir string, rt *routeTimer) (*fleet, error) {
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", DataDir: filepath.Join(dir, "server"), NoLocalWorkers: true})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	f := &fleet{srv: srv, base: "http://" + srv.Addr(), exited: make(chan struct{}),
		hc: &http.Client{Transport: &http.Transport{}}}
	if rt != nil {
		// The worker client builds on http.DefaultTransport when it is
		// constructed; swap the wrapper in only for that moment.
		orig := http.DefaultTransport
		rt.base = orig
		http.DefaultTransport = rt
		defer func() { http.DefaultTransport = orig }()
	}
	w, err := worker.New(worker.Config{
		Server: f.base, Name: "bench", DataDir: filepath.Join(dir, "worker"),
		Poll: s.poll, Slots: runtime.GOMAXPROCS(0), Log: log.New(io.Discard, "", 0),
	})
	if err != nil {
		f.shutdown()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	go func() {
		defer close(f.exited)
		w.Run(ctx)
	}()
	if f.stream, err = openStream(f.hc, f.base); err != nil {
		f.shutdown()
		return nil, err
	}
	return f, nil
}

// shutdown stops the worker, then the server, and waits for both.
func (f *fleet) shutdown() error {
	if f.stop != nil {
		f.stop()
		<-f.exited
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if f.stream != nil {
		f.stream.resp.Body.Close()
		<-f.stream.done
	}
	f.hc.CloseIdleConnections()
	return err
}

// submit posts one sweep and returns its jobs, the send time and the
// round trip.
func (f *fleet) submit(req careapi.SubmitRequest) ([]careapi.Job, time.Time, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, time.Time{}, 0, err
	}
	sent := time.Now()
	resp, err := f.hc.Post(f.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, sent, 0, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	rtt := time.Since(sent)
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		return nil, sent, rtt, fmt.Errorf("submit: %s: %s", resp.Status, msg)
	}
	var sr careapi.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, sent, rtt, fmt.Errorf("submit: %w", err)
	}
	return sr.Jobs, sent, rtt, nil
}

// run submits one sweep and waits until every job is terminal.
func (f *fleet) run(req careapi.SubmitRequest) (jobs []careapi.Job, sent time.Time, rtt time.Duration, err error) {
	jobs, sent, rtt, err = f.submit(req)
	if err != nil {
		return nil, sent, rtt, err
	}
	ids := make([]string, len(jobs))
	for i := range jobs {
		ids[i] = jobs[i].ID
	}
	return jobs, sent, rtt, f.stream.wait(ids, 2*time.Minute)
}

// list fetches every job of a campaign, with results.
func (f *fleet) list(label string) ([]careapi.Job, error) {
	resp, err := f.hc.Get(f.base + "/api/v1/jobs?campaign=" + label)
	if err != nil {
		return nil, fmt.Errorf("list: %w", err)
	}
	defer resp.Body.Close()
	var lr careapi.ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return nil, fmt.Errorf("list: %w", err)
	}
	return lr.Jobs, nil
}

// ---- the timed phase ----

// sweepJob is one job of the timed phase as the benchmark saw it.
type sweepJob struct {
	id      string
	cell    string
	latency float64 // submit → done, ms
	wait    float64 // submit → claim, ms
	hold    float64 // claim → done, ms
	doneAt  time.Time
}

type campaignPhase struct {
	setups []float64
	jobs   []sweepJob
	// rate is jobs completed per second of sweep makespan, normalized
	// to the nominal host (ref.go) sweep by sweep.
	rate    float64
	submits []float64
	refMS   float64 // median host ms of the timed phase's reference blocks
	memMB   float64
	label   string
	listed  []careapi.Job
	tracks  map[string]jobTrack
	events  int // stream events received during the timed phase
}

// measureCampaign sets up (p.setups() times) and runs one timed phase.
// Each sweep sits between two reference blocks on as many goroutines as
// the worker has slots; its latencies and rate are normalized by their
// mean.
func measureCampaign(s campaignSpec, p params, dir string, rt *routeTimer) (_ *campaignPhase, err error) {
	ph := &campaignPhase{label: fmt.Sprintf("timed-%d", p.seed), tracks: map[string]jobTrack{}}
	ref := newHostRef(runtime.GOMAXPROCS(0))
	var f *fleet
	for i := 0; i < p.setups(); i++ {
		if f != nil {
			if err := f.shutdown(); err != nil {
				return nil, err
			}
			f = nil
		}
		ref.start()
		t0 := time.Now()
		if f, err = startFleet(s, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), rt); err != nil {
			return nil, err
		}
		// The warm-up sweep's order is fixed: the order sets the sweep's
		// makespan, and set-up time should not depend on the seed.
		if _, _, _, err = f.run(sweepRequest(s, "warm", 0)); err != nil {
			f.shutdown()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		ph.setups = append(ph.setups, ref.lap(time.Since(t0)).Seconds())
	}
	defer func() {
		if serr := f.shutdown(); serr != nil && err == nil {
			err = serr
		}
	}()

	eventsBefore := f.stream.eventCount()
	ref.start()
	var makespan time.Duration // normalized
	for sweep := 0; sweep < s.sweeps(p.seconds); sweep++ {
		jobs, sent, rtt, err := f.run(sweepRequest(s, ph.label, p.seed+uint64(sweep)))
		if err != nil {
			return nil, err
		}
		refMS := ref.lapRef()
		ph.submits = append(ph.submits, ms(rtt))
		last := sent
		for _, jb := range jobs {
			jt := f.stream.track(jb.ID)
			ph.tracks[jb.ID] = jt
			ph.jobs = append(ph.jobs, sweepJob{
				id: jb.ID, cell: cellKey(&jb.Spec), doneAt: jt.doneAt,
				latency: ms(normalize(jt.doneAt.Sub(sent), refMS)),
				wait:    ms(jt.claimAt.Sub(sent)),
				hold:    ms(jt.doneAt.Sub(jt.claimAt)),
			})
			if jt.doneAt.After(last) {
				last = jt.doneAt
			}
		}
		makespan += normalize(last.Sub(sent), refMS)
	}
	ph.rate = float64(len(ph.jobs)) / makespan.Seconds()
	ph.refMS = median(ref.ms)
	ph.events = f.stream.eventCount() - eventsBefore
	ph.memMB = liveHeapMB()
	if ph.listed, err = f.list(ph.label); err != nil {
		return nil, err
	}
	return ph, nil
}

// reference is one cell's untimed direct run.
type reference struct {
	result []byte // compacted canonical result JSON
	runMS  float64
	hit    float64 // LLC hit ratio of the result
}

// directRun executes one cell the way a worker does, but directly
// through the harness, with the same checkpoint schedule.
func directRun(spec careapi.JobSpec, dir string) (reference, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return reference{}, err
	}
	defer os.RemoveAll(dir)
	opts := &harness.Options{
		Measure: spec.Measure, Warmup: spec.Warmup, MaxAttempts: 1,
		CheckpointDir: dir, CheckpointEvery: spec.CheckpointEvery,
	}
	t0 := time.Now()
	res, err := opts.Supervise(context.Background(), server.RunSpecOf(&spec))
	if err != nil {
		return reference{}, err
	}
	took := time.Since(t0)
	raw, err := server.MarshalResult(res)
	if err != nil {
		return reference{}, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return reference{}, err
	}
	return reference{result: buf.Bytes(), runMS: ms(took), hit: llcHitRatio(res)}, nil
}

func llcHitRatio(r sim.Result) float64 {
	if a := r.LLC.Accesses(); a > 0 {
		return float64(r.LLC.Hits()) / float64(a)
	}
	return 0
}

// references runs every distinct cell of the listed jobs once.
func references(jobs []careapi.Job, dir string) (map[string]reference, error) {
	refs := map[string]reference{}
	for _, jb := range jobs {
		key := cellKey(&jb.Spec)
		if _, ok := refs[key]; ok {
			continue
		}
		ref, err := directRun(jb.Spec, filepath.Join(dir, fmt.Sprintf("ref-%d", len(refs))))
		if err != nil {
			return nil, fmt.Errorf("direct run of %s: %w", key, err)
		}
		refs[key] = ref
	}
	return refs, nil
}

// checkCampaign is the campaign correctness check: every job reached
// done exactly once, was claimed once, and returned bytes equal to its
// cell's direct run. It counts the jobs that did not.
func checkCampaign(ph *campaignPhase, refs map[string]reference, rep *report) {
	bad := map[string]bool{}
	for _, jb := range ph.listed {
		jt := ph.tracks[jb.ID]
		switch {
		case jb.State != careapi.StateDone:
			rep.failf("job %s ended %s: %s", jb.ID, jb.State, jb.Error)
			bad[jb.ID] = true
		case jt.dones != 1:
			rep.failf("job %s reached done %d times on the event stream", jb.ID, jt.dones)
			bad[jb.ID] = true
		case jt.claims != 1:
			rep.failf("job %s was claimed %d times", jb.ID, jt.claims)
			bad[jb.ID] = true
		}
		var got bytes.Buffer
		if err := json.Compact(&got, jb.Result); err != nil || !bytes.Equal(got.Bytes(), refs[cellKey(&jb.Spec)].result) {
			rep.failf("job %s (%s) result differs from its direct run", jb.ID, cellKey(&jb.Spec))
			bad[jb.ID] = true
		}
	}
	if len(ph.listed) != len(ph.jobs) {
		rep.failf("server lists %d jobs of campaign %s, %d were submitted", len(ph.listed), ph.label, len(ph.jobs))
	}
	rep.attempted += int64(len(ph.jobs))
	rep.failed += int64(len(bad))
}

func runCampaign(p params) (*report, error) {
	s := campaign
	if p.tiny {
		s = tinyCampaign(s)
	}
	rep := newReport()
	if !p.traced {
		ph, err := measureCampaign(s, p, filepath.Join(p.workDir, "plain"), nil)
		if err != nil {
			return nil, err
		}
		refs, err := references(ph.listed, p.workDir)
		if err != nil {
			return nil, err
		}
		checkCampaign(ph, refs, rep)
		lat := make([]float64, 0, len(ph.jobs))
		hit := 0.0
		for _, j := range ph.jobs {
			lat = append(lat, j.latency)
			hit += refs[j.cell].hit
		}
		rep.metrics["setup_s"] = median(ph.setups)
		rep.metrics["ops_per_s"] = ph.rate
		rep.metrics["latency_ms_p50"] = quantile(lat, 0.50)
		rep.metrics["latency_ms_p95"] = quantile(lat, 0.95)
		rep.metrics["hit_ratio"] = hit / float64(len(ph.jobs))
		rep.metrics["mem_mb"] = ph.memMB
		return rep, nil
	}

	half := p
	half.seconds = p.seconds / 2
	plain, err := measureCampaign(s, half, filepath.Join(p.workDir, "plain"), nil)
	if err != nil {
		return nil, err
	}
	rt := newRouteTimer()
	ph, err := measureCampaign(s, half, filepath.Join(p.workDir, "traced"), rt)
	if err != nil {
		return nil, err
	}
	refs, err := references(ph.listed, p.workDir)
	if err != nil {
		return nil, err
	}
	checkCampaign(plain, refs, rep)
	checkCampaign(ph, refs, rep)

	appendUS, err := journalAppendUS(filepath.Join(p.workDir, "journal-probe"), 100)
	if err != nil {
		return nil, err
	}
	var wait, hold, over, lag []float64
	for _, j := range ph.jobs {
		wait = append(wait, j.wait)
		hold = append(hold, j.hold)
		over = append(over, j.hold-refs[j.cell].runMS)
	}
	rt.mu.Lock()
	for _, j := range ph.jobs {
		if at, ok := rt.completeAt[j.id]; ok {
			lag = append(lag, ms(j.doneAt.Sub(at)))
		}
	}
	m := rep.metrics
	m["api.submit_ms"] = median(ph.submits)
	m["api.claim_ms"] = median(rt.rtt["claim"])
	m["api.claim_empty"] = float64(rt.claimEmpty)
	m["api.complete_ms"] = median(rt.rtt["complete"])
	m["api.heartbeats"] = float64(rt.heartbeats)
	m["api.artifact_bytes"] = float64(rt.artifactBytes)
	rt.mu.Unlock()
	m["queue.wait_ms_p50"] = median(wait)
	m["journal.append_us"] = appendUS
	m["sse.events"] = float64(ph.events)
	m["sse.lag_ms"] = median(lag)
	m["worker.hold_ms_p50"] = median(hold)
	m["worker.overhead_ms"] = median(over)
	m["tracing.overhead_frac"] = overheadFrac(plain.rate, ph.rate)
	m["host.ref_ms"] = ph.refMS
	return rep, nil
}

// journalAppendUS times server.Journal.Append (with fsync) on a scratch
// journal in the same file system and returns the median in µs.
func journalAppendUS(dir string, n int) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, _, err := server.OpenJournal(filepath.Join(dir, "journal"), nil)
	if err != nil {
		return 0, err
	}
	defer j.Close()
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ev := server.Event{Op: "renew", Job: fmt.Sprintf("j%06d", i+1), Attempt: 1, Worker: "bench"}
		t0 := time.Now()
		if err := j.Append(&ev); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}
