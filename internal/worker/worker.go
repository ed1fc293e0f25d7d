package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"care/careapi"
	"care/internal/checkpoint"
	"care/internal/faultinject"
	"care/internal/harness"
	"care/internal/sim"
	"care/internal/telemetry"
)

// Config configures one care-worker process.
type Config struct {
	// Server is the care-server base URL.
	Server string
	// Name is this worker's stable identity; fencing names leases by
	// (worker, token), so two live workers must not share a name.
	Name string
	// DataDir is local scratch for per-job checkpoint directories.
	DataDir string
	// LeaseTTL is the lease duration requested on claims (0 = server
	// default). Heartbeats renew well inside it.
	LeaseTTL time.Duration
	// Heartbeat overrides the renew period (0 = LeaseTTL/3, min 250ms).
	Heartbeat time.Duration
	// Poll is the idle claim retry period (0 = 500ms).
	Poll time.Duration
	// Slots is how many jobs this worker runs concurrently (0 = 1).
	// Each slot claims, executes, and heartbeats independently; fencing
	// is per job, so one worker name may hold several leases at once.
	Slots int
	// Cores, MemMB, and Labels describe the machine for the server's
	// constraint matcher. A worker that declares nothing can still
	// claim unconstrained jobs.
	Cores  int
	MemMB  int64
	Labels []string
	// Faults configures fault injection: network classes wrap the HTTP
	// transport, worker-panic fires as jobs start, and simulation
	// classes run inside every job.
	Faults *faultinject.Config
	// Telemetry, when set, collects every job's interval series,
	// tagged with the job ID (nil = off).
	Telemetry *telemetry.Registry
	// Log receives progress lines (nil = standard logger).
	Log *log.Logger
}

// slots resolves the configured concurrency.
func (c *Config) slots() int {
	if c.Slots <= 0 {
		return 1
	}
	return c.Slots
}

// caps is the capability envelope registered on every claim.
func (c *Config) caps() *careapi.WorkerCaps {
	return &careapi.WorkerCaps{Cores: c.Cores, MemMB: c.MemMB, Labels: c.Labels, Slots: c.slots()}
}

// Worker claims and executes jobs until its context is cancelled.
type Worker struct {
	cfg    Config
	client *Client
	inj    *faultinject.Injector // nil when no faults are configured
	report *harness.Report
	panics atomic.Uint64
	logf   func(format string, args ...any)
}

// maxPanicRequeues bounds how many executions a job that keeps
// panicking its worker gets before it is failed permanently; without
// the cap a deterministic panic would loop forever.
const maxPanicRequeues = 5

// panicError is a job execution's contained panic.
type panicError struct{ v any }

func (p panicError) Error() string { return fmt.Sprintf("worker panic: %v", p.v) }

// errLeaseLost and errCancelRequested are job-context cancel causes.
var (
	errLeaseLost       = errors.New("worker: lease lost")
	errCancelRequested = errors.New("worker: cancel requested by server")
)

// New builds a worker. Name and Server are required.
func New(cfg Config) (*Worker, error) {
	if cfg.Server == "" || cfg.Name == "" {
		return nil, errors.New("worker: config needs a server URL and a worker name")
	}
	if cfg.DataDir == "" {
		return nil, errors.New("worker: config needs a data directory")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("worker: data dir: %w", err)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	var inj *faultinject.Injector
	if cfg.Faults.Enabled() {
		inj = faultinject.New(*cfg.Faults)
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.Name))
	logf := log.Printf
	if cfg.Log != nil {
		logf = cfg.Log.Printf
	}
	return &Worker{
		cfg:    cfg,
		client: NewClient(cfg.Server, inj, h.Sum64()),
		inj:    inj,
		report: harness.NewReport(),
		logf:   logf,
	}, nil
}

// Report returns this worker's campaign outcome ledger.
func (w *Worker) Report() *harness.Report { return w.report }

// Panics returns how many job executions panicked and were contained.
func (w *Worker) Panics() uint64 { return w.panics.Load() }

// heartbeatEvery resolves the renew period.
func (w *Worker) heartbeatEvery() time.Duration {
	if w.cfg.Heartbeat > 0 {
		return w.cfg.Heartbeat
	}
	ttl := w.cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	hb := ttl / 3
	if hb < 250*time.Millisecond {
		hb = 250 * time.Millisecond
	}
	return hb
}

// idemState is one slot's claim idempotency key: held stable until a
// claim round-trip definitively settles, so a lost response re-asks
// for the same lease instead of a second job. Keys are unique across
// worker restarts (they embed the process start time), which matters
// because a key is honoured for as long as its claim is the job's
// current lease. Each slot has its own state: two slots claiming
// concurrently must ask for two different leases.
var processEpoch = time.Now().UnixNano()

type idemState struct {
	name    string
	slot    int
	pending string
	seq     uint64
}

func (st *idemState) next() string {
	if st.pending == "" {
		st.seq++
		st.pending = fmt.Sprintf("%s-s%d-%d-%d", st.name, st.slot, processEpoch, st.seq)
	}
	return st.pending
}

func (st *idemState) settle() { st.pending = "" }

// Run claims and executes jobs on cfg.Slots concurrent slots until
// ctx is cancelled. Cancel ctx with sim.ErrDrain as the cause
// (context.WithCancelCause) for a graceful drain: every running job
// stops at its next scheduled checkpoint, uploads it, and requeues,
// so another worker resumes it with bit-identical results.
func (w *Worker) Run(ctx context.Context) error {
	slots := w.cfg.slots()
	w.logf("care-worker %s: serving %s (%d slot(s))", w.cfg.Name, w.cfg.Server, slots)
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.runSlot(ctx, slot)
		}(i)
	}
	wg.Wait()
	return context.Cause(ctx)
}

// runSlot is one slot's claim loop.
func (w *Worker) runSlot(ctx context.Context, slot int) {
	idem := idemState{name: w.cfg.Name, slot: slot}
	caps := w.cfg.caps()
	for {
		if ctx.Err() != nil {
			return
		}
		resp, ok, err := w.client.Claim(ctx, w.cfg.Name, w.cfg.LeaseTTL, idem.next(), caps)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// The claim may or may not have landed; keep the same idem key
			// so the retry re-asks for the same lease.
			w.logf("care-worker %s[%d]: claim: %v", w.cfg.Name, slot, err)
			if !sleepCtx(ctx, w.cfg.Poll) {
				return
			}
			continue
		}
		idem.settle()
		if !ok {
			if !sleepCtx(ctx, w.cfg.Poll) {
				return
			}
			continue
		}
		w.runJob(ctx, slot, resp)
	}
}

// sleepCtx sleeps d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// jobState is the shared state between a job's executor and its
// heartbeater.
type jobState struct {
	mu        sync.Mutex
	leaseLost bool
	cancelled bool
}

func (st *jobState) flag(f func(*jobState)) {
	st.mu.Lock()
	f(st)
	st.mu.Unlock()
}

// runJob executes one leased job to a settled outcome: complete, fail,
// cancel-ack, requeue, or a silent abandon when the lease was fenced
// away (the server already moved on; any call we made would be
// rejected with stale_lease).
func (w *Worker) runJob(ctx context.Context, slot int, claim careapi.ClaimResponse) {
	jb := claim.Job
	token := jb.Attempts
	w.logf("care-worker %s[%d]: claimed %s (token %d): %s/%s/c%d",
		w.cfg.Name, slot, jb.ID, token, jb.Spec.Workload, jb.Spec.Policy, jb.Spec.Cores)

	dir := filepath.Join(w.cfg.DataDir, "jobs", jb.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		w.client.Fail(ctx, w.cfg.Name, jb.ID, token, "fail", fmt.Sprintf("worker scratch dir: %v", err))
		return
	}
	defer os.RemoveAll(dir)
	spec := harness.RunSpecOf(&jb.Spec)
	ckptPath := filepath.Join(dir, spec.CheckpointFile())

	// Seed the local checkpoint from the server artifact so this
	// attempt resumes exactly where the previous holder stopped.
	if claim.HasArtifact {
		if err := w.fetchArtifact(ctx, jb.ID, token, ckptPath); err != nil {
			if IsStaleLease(err) {
				return // fenced before we even started
			}
			// A missing/torn artifact is not fatal: start fresh; the
			// checkpoint schedule keeps the result identical regardless.
			w.logf("care-worker %s: %s artifact fetch: %v (starting fresh)", w.cfg.Name, jb.ID, err)
		}
	}

	// The job context: cancelled by the worker draining (inherited from
	// ctx, cause sim.ErrDrain), by the job's own timeout, or by the
	// heartbeater on lease loss / server cancel.
	jobCtx, cancelJob := context.WithCancelCause(ctx)
	defer cancelJob(nil)
	runCtx := jobCtx
	if t := jb.Spec.Timeout(); t > 0 {
		var cancelT context.CancelFunc
		runCtx, cancelT = context.WithTimeout(jobCtx, t)
		defer cancelT()
	}

	st := &jobState{}
	hbDone := make(chan struct{})
	hbStop := make(chan struct{})
	go w.heartbeat(jobCtx, jb.ID, token, slot, ckptPath, st, cancelJob, hbStop, hbDone)

	result, err := w.execute(runCtx, jb, dir, spec)

	close(hbStop)
	<-hbDone

	st.mu.Lock()
	leaseLost, cancelled := st.leaseLost, st.cancelled
	st.mu.Unlock()

	// Outcome calls get a fresh deadline even while draining: ctx may
	// already be cancelled, but the requeue/complete must still reach
	// the server.
	outCtx, outCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer outCancel()

	switch {
	case leaseLost:
		// Fenced: the server re-owns the job. Anything we report now
		// would be rejected; drop our work on the floor.
		w.logf("care-worker %s: %s lease lost (token %d); abandoning", w.cfg.Name, jb.ID, token)
	case err == nil:
		bytes, merr := harness.MarshalResult(result)
		if merr != nil {
			w.settle(outCtx, jb.ID, token, "fail", merr.Error())
			return
		}
		if cerr := w.client.Complete(outCtx, w.cfg.Name, jb.ID, token, json.RawMessage(bytes)); cerr != nil {
			if IsStaleLease(cerr) {
				w.logf("care-worker %s: %s complete fenced as stale (token %d)", w.cfg.Name, jb.ID, token)
				return
			}
			w.logf("care-worker %s: %s complete: %v", w.cfg.Name, jb.ID, cerr)
			return
		}
		w.logf("care-worker %s: completed %s (token %d)", w.cfg.Name, jb.ID, token)
	case errors.As(err, new(panicError)):
		// Contained: requeue so the job runs again, unless it keeps
		// panicking.
		kind := "requeue"
		if token > maxPanicRequeues {
			kind = "fail"
		}
		w.settle(outCtx, jb.ID, token, kind, err.Error())
	case cancelled:
		w.settle(outCtx, jb.ID, token, "cancel", "")
	case errors.Is(err, context.DeadlineExceeded) && runCtx.Err() != nil && jobCtx.Err() == nil:
		w.settle(outCtx, jb.ID, token, "fail", fmt.Sprintf("timeout after %s: %v", jb.Spec.Timeout(), err))
	case errors.Is(err, sim.ErrInterrupted) && errors.Is(context.Cause(ctx), sim.ErrDrain):
		// Graceful drain: the final checkpoint sits on the schedule, so
		// upload it and hand the job back for another worker to resume.
		if data, rerr := os.ReadFile(ckptPath); rerr == nil {
			if _, verr := checkpoint.Verify(bytes.NewReader(data)); verr == nil {
				if uerr := w.client.UploadArtifact(outCtx, w.cfg.Name, jb.ID, token, data); uerr != nil {
					w.logf("care-worker %s: %s drain artifact upload: %v", w.cfg.Name, jb.ID, uerr)
				}
			}
		}
		w.settle(outCtx, jb.ID, token, "requeue", "worker draining")
	default:
		w.settle(outCtx, jb.ID, token, "fail", err.Error())
	}
}

// execute runs one job through the harness supervisor. A panic in it
// (injected by worker-panic, or real) is contained and returned as a
// panicError, so the slot keeps serving.
func (w *Worker) execute(ctx context.Context, jb careapi.Job, dir string, spec harness.RunSpec) (_ sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			w.panics.Add(1)
			err = panicError{v}
		}
	}()
	if w.inj != nil {
		w.inj.BeginServerJob()
	}
	opts, err := w.jobOptions(jb, dir)
	if err != nil {
		return sim.Result{}, err
	}
	return opts.Supervise(ctx, spec)
}

// settle reports a job's non-complete outcome, tolerating fencing.
func (w *Worker) settle(ctx context.Context, job string, token int, kind, reason string) {
	if err := w.client.Fail(ctx, w.cfg.Name, job, token, kind, reason); err != nil {
		if IsStaleLease(err) {
			w.logf("care-worker %s: %s %s fenced as stale (token %d)", w.cfg.Name, job, kind, token)
			return
		}
		w.logf("care-worker %s: %s %s: %v", w.cfg.Name, job, kind, err)
		return
	}
	w.logf("care-worker %s: %s -> %s (token %d)", w.cfg.Name, job, kind, token)
}

// fetchArtifact downloads and installs the job's server-side
// checkpoint, verifying its container structure before trusting it.
func (w *Worker) fetchArtifact(ctx context.Context, job string, token int, ckptPath string) error {
	data, err := w.client.DownloadArtifact(ctx, w.cfg.Name, job, token)
	if err != nil || data == nil {
		return err
	}
	if _, err := checkpoint.Verify(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("downloaded artifact: %w", err)
	}
	tmp := ckptPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, ckptPath)
}

// heartbeat renews the lease until the job ends, learning about
// server-side cancels and fencing, reporting the job's progress
// watermark, and uploading the latest on-schedule checkpoint so the
// job can migrate if this worker dies. Each tick reads the checkpoint
// once: the watermark and the upload both come from those bytes, so
// the watermark always describes a file that verifies. Transient
// heartbeat failures are tolerated — the server re-arms a replayed
// lease after its own restart — but a definitive stale_lease rejection
// means custody is gone: the heartbeat stops and the job context is
// cancelled with errLeaseLost.
func (w *Worker) heartbeat(ctx context.Context, job string, token, slot int, ckptPath string,
	st *jobState, cancelJob context.CancelCauseFunc, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	start := time.Now()
	tick := time.NewTicker(w.heartbeatEvery())
	defer tick.Stop()
	var uploaded uint64 // hash of the last checkpoint uploaded
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		data, sum := readCheckpoint(ckptPath, uploaded)
		resp, err := w.client.Heartbeat(ctx, w.cfg.Name, job, token, progress(slot, data, start))
		if err != nil {
			if IsStaleLease(err) {
				w.logf("care-worker %s: %s heartbeat fenced as stale (token %d)", w.cfg.Name, job, token)
				st.flag(func(s *jobState) { s.leaseLost = true })
				cancelJob(errLeaseLost)
				return
			}
			// Transient (partition, server restarting): keep the job
			// running and keep trying. If the server expired us meanwhile,
			// the next round trip comes back stale_lease.
			w.logf("care-worker %s: %s heartbeat: %v", w.cfg.Name, job, err)
			continue
		}
		if resp.CancelRequested {
			w.logf("care-worker %s: %s cancel requested; unwinding", w.cfg.Name, job)
			st.flag(func(s *jobState) { s.cancelled = true })
			cancelJob(errCancelRequested)
			return
		}
		if data == nil || sum == uploaded {
			continue
		}
		// Every checkpoint file is on the schedule (a stop writes none),
		// so any of them may seed another worker's resume.
		if err := w.client.UploadArtifact(ctx, w.cfg.Name, job, token, data); err == nil {
			uploaded = sum
		} else if ctx.Err() == nil && !IsStaleLease(err) {
			// An upload cut short by the job ending is no failure, and
			// a fenced one is reported by the next heartbeat, which
			// comes back stale too and ends the loop.
			w.logf("care-worker %s: %s artifact upload: %v", w.cfg.Name, job, err)
		}
	}
}

// readCheckpoint reads the job's live checkpoint and returns its bytes
// and their hash. It returns nil bytes before the first checkpoint
// lands and for a read that does not verify as a complete container (a
// read racing the simulator's save; the next heartbeat sees the
// settled file). Bytes that hash to verified, the last upload, were
// verified then and are not parsed again.
func readCheckpoint(path string, verified uint64) ([]byte, uint64) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0
	}
	h := fnv.New64a()
	h.Write(data)
	sum := h.Sum64()
	if sum != verified {
		if _, err := checkpoint.Verify(bytes.NewReader(data)); err != nil {
			return nil, 0
		}
	}
	return data, sum
}

// progress builds the heartbeat's watermark from the job's latest
// on-schedule checkpoint, data: its meta frame carries the simulation
// clock and the run-schedule position. Without a checkpoint (none yet,
// or a torn read) only the elapsed wall clock is reported.
func progress(slot int, data []byte, start time.Time) *careapi.Progress {
	p := &careapi.Progress{Slot: slot, ElapsedMS: time.Since(start).Milliseconds()}
	var m sim.RunMeta
	r, err := checkpoint.NewReader(bytes.NewReader(data))
	if err == nil {
		err = r.Frame("meta", m.Checkpoint)
	}
	if err != nil {
		return p
	}
	p.Phase, p.Cycles, p.Instructions = m.Phase, m.Cycle, m.Done
	if m.Every > 0 {
		p.Checkpoint = m.Done / m.Every
	}
	return p
}

// jobOptions builds the harness supervision options for one job. Each
// job gets a private checkpoint directory (two jobs with identical
// specs must not share resume state) and a jitter seed of its own, and
// nothing here depends on which worker runs the job — which is what
// makes migrated results byte-identical.
func (w *Worker) jobOptions(jb careapi.Job, dir string) (*harness.Options, error) {
	faults := w.cfg.Faults.SimOnly()
	if jb.Spec.Faults != "" {
		cfg, err := faultinject.ParseSpec(jb.Spec.Faults)
		if err != nil {
			return nil, err
		}
		faults = cfg.SimOnly()
	}
	h := fnv.New64a()
	h.Write([]byte(jb.ID))
	return &harness.Options{
		Measure:           jb.Spec.Measure,
		Warmup:            jb.Spec.Warmup,
		MaxAttempts:       jb.Spec.Retries + 1,
		CheckpointDir:     dir,
		CheckpointEvery:   jb.Spec.CheckpointEvery,
		ResumeExisting:    true,
		RetryJitterSeed:   h.Sum64(),
		Faults:            faults,
		Report:            w.report,
		TelemetryRegistry: w.cfg.Telemetry,
		TelemetryTag:      jb.ID + "/",
	}, nil
}
