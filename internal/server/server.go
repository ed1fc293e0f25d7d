package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"care/careapi"
	"care/internal/faultinject"
	"care/internal/harness"
	"care/internal/sim"
	"care/internal/telemetry"
	"care/internal/worker"
)

// Config configures a care-server instance.
type Config struct {
	// Addr is the listen address (e.g. "127.0.0.1:7777"; ":0" picks a
	// free port — read it back with Addr()).
	Addr string
	// DataDir holds the journal, per-job checkpoint directories, and
	// the telemetry stream. It is created if absent.
	DataDir string
	// Workers is the in-process worker's slot count (0 = 2).
	Workers int
	// NoLocalWorkers runs the server queue-only: jobs execute solely on
	// remote care-worker processes over the worker API.
	NoLocalWorkers bool
	// LeaseCheckEvery is the lease-expiry sweep period (0 = 1s).
	LeaseCheckEvery time.Duration
	// CompactMinEvents triggers a startup journal compaction once the
	// replayed history reaches this many records (0 = 512 default,
	// negative disables compaction).
	CompactMinEvents int
	// Faults configures fault injection: the server-level crash
	// classes act on this process (chaos testing); the simulation
	// classes are passed into every job.
	Faults *faultinject.Config
	// DrainTimeout bounds a graceful shutdown's wait for running jobs
	// to reach their next checkpoint (0 = 30s).
	DrainTimeout time.Duration
	// NoSync skips journal fsyncs (unit tests only).
	NoSync bool
}

// Request/response shapes live in package careapi; the server keeps
// its historical names as aliases so the wire surface has exactly one
// definition.
type (
	SubmitRequest     = careapi.SubmitRequest
	Health            = careapi.Health
	DegradationReport = careapi.DegradationReport
)

// Server is the care-server daemon: an HTTP API over a durable job
// queue, plus (unless NoLocalWorkers) an in-process worker.Worker that
// claims from that API over loopback like any remote care-worker.
type Server struct {
	cfg         Config
	q           *Queue
	artifacts   *ArtifactStore
	leases      *leaseManager
	hub         *eventHub
	inj         *faultinject.Injector
	registry    *telemetry.Registry
	http        *http.Server
	ln          net.Listener
	journalPath string
	started     time.Time
	draining    atomic.Bool
	serveErr    chan error

	// localKey authenticates the in-process worker's claims under the
	// reserved careapi.LocalWorker name (see loopbackURL).
	localKey  string
	local     *worker.Worker // nil when queue-only
	stopLocal context.CancelCauseFunc
	localDone chan struct{}
}

// localPoll is the in-process worker's idle claim period: a loopback
// claim on an empty queue is cheap, and a short poll keeps the wait
// between submit and claim small.
const localPoll = 20 * time.Millisecond

// New creates the server: it ensures DataDir and opens and replays the
// journal, restoring every job committed before the last shutdown or
// crash. Start launches the listener and the in-process worker.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.DataDir == "" {
		return nil, errors.New("server: config needs a data directory")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	var inj *faultinject.Injector
	if cfg.Faults.Enabled() {
		inj = faultinject.New(*cfg.Faults)
	}
	journalPath := filepath.Join(cfg.DataDir, "journal")
	q, err := OpenQueue(journalPath, inj)
	if err != nil {
		return nil, err
	}
	// Compact on clean startup, before the queue is shared: a long
	// campaign's journal collapses to one snapshot record per job.
	minEvents := cfg.CompactMinEvents
	if minEvents == 0 {
		minEvents = 512
	}
	if err := q.CompactIfWorthwhile(minEvents); err != nil {
		q.Close()
		return nil, err
	}
	if cfg.NoSync {
		q.jnl.nosync = true
	}
	artifacts, err := NewArtifactStore(filepath.Join(cfg.DataDir, "artifacts"))
	if err != nil {
		q.Close()
		return nil, err
	}
	key := make([]byte, 16)
	if _, err := rand.Read(key); err != nil {
		q.Close()
		return nil, fmt.Errorf("server: local worker key: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		q:           q,
		artifacts:   artifacts,
		hub:         newEventHub(),
		inj:         inj,
		registry:    telemetry.NewRegistry(),
		journalPath: journalPath,
		serveErr:    make(chan error, 1),
		localKey:    hex.EncodeToString(key),
	}
	q.SetNotify(s.hub.publish)
	s.leases = newLeaseManager(q, artifacts, cfg.LeaseCheckEvery)
	s.http = &http.Server{Handler: s.routes()}
	return s, nil
}

// routes builds the API surface.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/report", s.handleReport)
	mux.HandleFunc("POST /api/v1/worker/claim", s.handleWorkerClaim)
	mux.HandleFunc("POST /api/v1/worker/heartbeat", s.handleWorkerHeartbeat)
	mux.HandleFunc("POST /api/v1/worker/complete", s.handleWorkerComplete)
	mux.HandleFunc("POST /api/v1/worker/fail", s.handleWorkerFail)
	mux.HandleFunc("PUT /api/v1/worker/jobs/{id}/artifact", s.handleArtifactPut)
	mux.HandleFunc("GET /api/v1/worker/jobs/{id}/artifact", s.handleArtifactGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Start listens and serves in the background and launches the
// in-process worker. It returns once the listener is bound, so Addr()
// is valid.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	s.ln = ln
	s.started = time.Now()
	if !s.cfg.NoLocalWorkers {
		if err := s.startLocal(); err != nil {
			ln.Close()
			return err
		}
	}
	s.leases.start()
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr <- err
		}
	}()
	return nil
}

// startLocal runs the in-process worker: the worker.Worker remote
// machines run, with Workers slots, claiming over loopback HTTP under
// the reserved name careapi.LocalWorker. Its job scratch lives under
// DataDir, so a job killed with the process resumes from its last
// on-schedule checkpoint.
func (s *Server) startLocal() error {
	w, err := worker.New(worker.Config{
		Server:    s.loopbackURL(),
		Name:      careapi.LocalWorker,
		DataDir:   s.cfg.DataDir,
		Poll:      localPoll,
		Slots:     s.cfg.Workers,
		Faults:    localFaults(s.cfg.Faults),
		Telemetry: s.registry,
		Log:       log.New(io.Discard, "", 0),
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s.local, s.stopLocal, s.localDone = w, cancel, make(chan struct{})
	go func() {
		defer close(s.localDone)
		w.Run(ctx)
	}()
	return nil
}

// loopbackURL is the listener's address as the in-process worker
// dials it. The URL's userinfo carries localKey, which net/http sends
// as basic auth: that is how a claim under careapi.LocalWorker is told
// apart from a remote worker borrowing the name.
func (s *Server) loopbackURL() string {
	addr := s.ln.Addr().(*net.TCPAddr)
	ip := addr.IP
	if ip.IsUnspecified() {
		ip = net.IPv4(127, 0, 0, 1)
	}
	u := url.URL{
		Scheme: "http",
		User:   url.UserPassword(careapi.LocalWorker, s.localKey),
		Host:   net.JoinHostPort(ip.String(), strconv.Itoa(addr.Port)),
	}
	return u.String()
}

// isLocal reports whether r comes from the in-process worker.
func (s *Server) isLocal(r *http.Request) bool {
	_, key, ok := r.BasicAuth()
	return ok && key == s.localKey
}

// localFaults is what the in-process worker injects: the simulation
// classes and worker-panic. The journal classes act on the server's
// own injector, and the network classes do not apply to loopback.
func localFaults(c *faultinject.Config) *faultinject.Config {
	if c == nil || c.ServerWorkerPanicNth == 0 {
		return c.SimOnly()
	}
	var lf faultinject.Config
	if sim := c.SimOnly(); sim != nil {
		lf = *sim
	}
	lf.ServerWorkerPanicNth = c.ServerWorkerPanicNth
	return &lf
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// ServeErr delivers a fatal Serve error, if one occurred.
func (s *Server) ServeErr() <-chan error { return s.serveErr }

// Shutdown drains the server gracefully: readiness flips to 503, the
// queue stops handing out jobs, the in-process worker stops every
// running simulation at its next scheduled checkpoint, uploads it and
// requeues the job, then the HTTP listener closes and the journal is
// synced shut. A subsequent New on the same DataDir resumes the
// requeued jobs from their checkpoints.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.q.Stop()
	s.leases.Stop()
	var errs []error
	if s.local != nil {
		// The worker settles over loopback, so the listener must stay
		// open until it has gone.
		drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
		s.stopLocal(sim.ErrDrain)
		select {
		case <-s.localDone:
		case <-drainCtx.Done():
			errs = append(errs, fmt.Errorf("server: drain timed out: %w", drainCtx.Err()))
		}
	}
	// Streams must end before http.Shutdown: it waits for in-flight
	// handlers, and an SSE handler only returns when its subscription
	// channel closes (or its client disconnects).
	s.hub.Close()
	if err := s.http.Shutdown(ctx); err != nil {
		errs = append(errs, err)
	}
	if err := s.flushTelemetry(); err != nil {
		errs = append(errs, err)
	}
	if err := s.q.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// flushTelemetry writes every per-job interval series collected this
// process lifetime to DataDir/telemetry.jsonl (appending, so series
// survive across restarts alongside the journal).
func (s *Server) flushTelemetry() error {
	if s.registry.Len() == 0 {
		return nil
	}
	f, err := os.OpenFile(filepath.Join(s.cfg.DataDir, "telemetry.jsonl"),
		os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("server: telemetry flush: %w", err)
	}
	if err := errors.Join(telemetry.Write(f, "jsonl", s.registry.Series()), f.Close()); err != nil {
		return fmt.Errorf("server: telemetry flush: %w", err)
	}
	return nil
}

// ---- handlers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders the one versioned error envelope every endpoint
// shares (careapi.Error). The human message keeps the "error" JSON
// key, so pre-envelope clients parsing {"error": ...} still work.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, careapi.Err(code, "%s", err.Error()))
}

// maxSweep bounds the cells one submission expands to, so a short
// body cannot make the server materialize a huge cross product.
const maxSweep = 4096

// decodeSubmit decodes a POST /api/v1/jobs body and expands it into
// validated specs. The whole sweep is validated before any of it is
// committed, so a bad cell cannot leave a half-submitted cross
// product behind.
func decodeSubmit(body io.Reader) ([]JobSpec, error) {
	var req SubmitRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad submission: %w", err)
	}
	cells := 1
	for _, n := range []int{len(req.Workloads), len(req.Policies), len(req.CoreCounts)} {
		if cells *= max(n, 1); cells > maxSweep {
			return nil, fmt.Errorf("bad submission: sweep exceeds %d cells", maxSweep)
		}
	}
	specs := req.Specs()
	for i := range specs {
		if err := ValidateSpec(&specs[i]); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, careapi.CodeDraining, errors.New("server is draining"))
		return
	}
	specs, err := decodeSubmit(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, careapi.CodeBadRequest, err)
		return
	}
	// The whole sweep commits as ONE journal record, so a crash — or a
	// refused append — mid-submission can never leave a partial cross
	// product behind: either every cell is durable and acknowledged,
	// or none is.
	jobs, err := s.q.SubmitSweep(specs)
	if err != nil {
		writeError(w, http.StatusInternalServerError, careapi.CodeInternal, err)
		return
	}
	writeJSON(w, http.StatusCreated, careapi.SubmitResponse{Jobs: jobs})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	limit := 0
	if raw := qs.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, careapi.CodeBadRequest,
				fmt.Errorf("bad limit %q", raw))
			return
		}
		limit = n
	}
	if state := qs.Get("state"); state != "" {
		switch state {
		case StatePending, StateRunning, StateDone, StateFailed, StateCancelled:
		default:
			writeError(w, http.StatusBadRequest, careapi.CodeBadRequest,
				fmt.Errorf("unknown state %q", state))
			return
		}
	}
	jobs, total, next := s.q.List(qs.Get("state"), qs.Get("campaign"), limit, qs.Get("cursor"))
	writeJSON(w, http.StatusOK, careapi.ListResponse{Jobs: jobs, Total: total, NextCursor: next})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	jb, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, careapi.CodeUnknownJob, err)
		return
	}
	writeJSON(w, http.StatusOK, jb)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jb, err := s.q.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, careapi.CodeUnknownJob, err)
		return
	}
	switch jb.State {
	case StatePending:
		if err := s.q.Cancel(id); err != nil {
			writeError(w, http.StatusConflict, careapi.CodeBadTransition, err)
			return
		}
	case StateRunning:
		// Flag the lease; the holder learns on its next heartbeat and
		// acknowledges, or the lease expires into the cancel if the
		// holder never comes back. Report accepted, not yet terminal.
		if !s.q.RequestCancelLeased(id) {
			// Raced with completion: report the terminal state.
			jb, _ = s.q.Get(id)
			writeJSON(w, http.StatusConflict, jb)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		return
	default:
		writeError(w, http.StatusConflict, careapi.CodeBadTransition,
			fmt.Errorf("%w: cancel of %s job %s", ErrBadTransition, jb.State, id))
		return
	}
	jb, _ = s.q.Get(id)
	writeJSON(w, http.StatusOK, jb)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:           "ok",
		Draining:         s.draining.Load(),
		QueueDepth:       s.q.Depth(),
		Jobs:             s.q.Counts(),
		JournalSeq:       s.q.Seq(),
		UptimeSec:        time.Since(s.started).Seconds(),
		ActiveLeases:     s.q.ActiveLeases(),
		LeaseExpirations: s.q.Expirations(),
		Fleet:            s.leases.Fleet(),
		ArtifactCount:    s.artifacts.Count(),
		ArtifactBytes:    s.artifacts.Bytes(),
		SSESubscribers:   s.hub.Count(),
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleReport describes the runs of the in-process worker (an empty
// ledger when queue-only; remote workers keep their own).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var report *harness.Report
	var panics uint64
	if s.local != nil {
		report, panics = s.local.Report(), s.local.Panics()
	}
	completed, retried, dropped := report.Counts()
	writeJSON(w, http.StatusOK, DegradationReport{
		Jobs:         s.q.Counts(),
		JournalSeq:   s.q.Seq(),
		Completed:    completed,
		Retried:      retried,
		Dropped:      dropped,
		WorkerPanics: panics,
		Summary:      report.Summary(),
	})
}

// handleMetrics serves Prometheus text format: server gauges followed
// by every collected per-job interval series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counts := s.q.Counts()
	for _, state := range []string{StatePending, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "care_server_jobs{state=%q} %d\n", state, counts[state])
	}
	fmt.Fprintf(w, "care_server_queue_depth %d\n", s.q.Depth())
	backlog := s.q.PendingByPriority()
	prios := make([]int, 0, len(backlog))
	for p := range backlog {
		prios = append(prios, p)
	}
	sort.Ints(prios)
	for _, p := range prios {
		fmt.Fprintf(w, "care_server_backlog{priority=\"%d\"} %d\n", p, backlog[p])
	}
	fmt.Fprintf(w, "care_server_sse_subscribers %d\n", s.hub.Count())
	fmt.Fprintf(w, "care_server_journal_seq %d\n", s.q.Seq())
	slots := 0
	if s.local != nil {
		slots = s.cfg.Workers
	}
	fmt.Fprintf(w, "care_server_workers %d\n", slots)
	fmt.Fprintf(w, "care_server_uptime_seconds %f\n", time.Since(s.started).Seconds())
	fmt.Fprintf(w, "care_server_active_leases %d\n", s.q.ActiveLeases())
	fmt.Fprintf(w, "care_server_lease_expirations_total %d\n", s.q.Expirations())
	fmt.Fprintf(w, "care_server_artifact_store_files %d\n", s.artifacts.Count())
	fmt.Fprintf(w, "care_server_artifact_store_bytes %d\n", s.artifacts.Bytes())
	for _, wf := range s.leases.Fleet() {
		fmt.Fprintf(w, "care_server_worker_last_heartbeat_age_seconds{worker=%q} %f\n", wf.Name, wf.LastSeenSec)
		if wf.Caps != nil {
			fmt.Fprintf(w, "care_server_worker_slots{worker=%q} %d\n", wf.Name, wf.Caps.Slots)
		}
	}
	// A failed write means the scraper went away; there is no one to
	// report it to.
	_ = telemetry.Write(w, "prom", s.registry.Series())
}
