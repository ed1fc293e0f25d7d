// Campaign supervision: retrying crashed or faulted simulations from
// their last good checkpoint with capped exponential backoff, and
// degrading permanent failures into a structured campaign report
// instead of aborting the experiment.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"care/careapi"
	"care/internal/graph"
	"care/internal/policy"
	"care/internal/sim"
	"care/internal/synth"
	"care/internal/trace"
)

// RunSpec publicly identifies one supervised simulation for external
// drivers (care-server submits jobs as RunSpecs). It mirrors the
// internal run key the experiments use, so a job and an experiment
// describing the same run execute identically.
type RunSpec struct {
	// Kind is "spec" (synthetic SPEC-like workload) or "gap"
	// (kernel-dataset, e.g. "bfs-or").
	Kind string
	// Workload names the trace source.
	Workload string
	// Scheme is the LLC replacement policy name.
	Scheme string
	// Cores is the simulated core count.
	Cores int
	// Prefetch enables the paper's L1/L2 prefetcher pairing.
	Prefetch bool
	// Scale is the cache scale divisor (1 = paper-size hierarchy).
	Scale int
	// Warmup and Measure are per-core instruction budgets.
	Warmup, Measure uint64
	// GAPRecords caps GAP kernel traces (0 = DefaultGAPRecords).
	GAPRecords int
}

// RunSpecOf converts a job spec to the run identity it executes as.
func RunSpecOf(s *careapi.JobSpec) RunSpec {
	return RunSpec{
		Kind:       s.Kind,
		Workload:   s.Workload,
		Scheme:     s.Policy,
		Cores:      s.Cores,
		Prefetch:   s.Prefetch,
		Scale:      s.Scale,
		Warmup:     s.Warmup,
		Measure:    s.Measure,
		GAPRecords: s.GAPRecords,
	}
}

// MarshalResult renders a simulation result as the canonical bytes a
// job completes with (journaled and served by care-server). Chaos
// tests compare these bytes against an unsupervised run's, so the
// encoding must be deterministic (encoding/json is, for a fixed
// struct).
func MarshalResult(r sim.Result) (json.RawMessage, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("harness: encode result: %w", err)
	}
	return b, nil
}

// MaxCores bounds a run spec's core count: four times the paper's
// largest system. The LLC grows with the cores, so an unbounded count
// would let one job submission exhaust the executing process's memory.
const MaxCores = 64

// Validate rejects malformed specs up front with typed errors, so a
// bad job submission fails at the API boundary rather than inside a
// worker. The system configuration the run would build must pass
// sim.Config.Validate: a core count or scale whose cache geometry is
// not a power of two is refused with an error wrapping
// cache.ErrGeometry.
func (r *RunSpec) Validate() error {
	switch r.Kind {
	case "spec":
		if _, err := synth.Lookup(r.Workload); err != nil {
			return err
		}
	case "gap":
		if !knownGAP(r.Workload) {
			return fmt.Errorf("harness: GAP workload %q (want kernel-dataset, one of %v)", r.Workload, gapWorkloads())
		}
	default:
		return fmt.Errorf("harness: run kind %q (want \"spec\" or \"gap\")", r.Kind)
	}
	if _, err := policy.Parse(r.Scheme); err != nil {
		return err
	}
	if r.Cores < 1 || r.Cores > MaxCores {
		return fmt.Errorf("harness: run spec needs 1 to %d cores, got %d", MaxCores, r.Cores)
	}
	if err := r.key().config().Validate(); err != nil {
		return fmt.Errorf("harness: run spec: %w", err)
	}
	if r.Measure == 0 {
		return errors.New("harness: run spec needs a measure budget")
	}
	return nil
}

// knownGAP reports whether workload is a "kernel-dataset" pair naming
// a known GAP kernel and dataset, without building its trace.
func knownGAP(workload string) bool {
	kernel, dataset, _ := strings.Cut(workload, "-")
	return slices.Contains(graph.Kernels(), kernel) &&
		slices.ContainsFunc(graph.Datasets(), func(d graph.DatasetSpec) bool {
			return dataset == d.Short || dataset == d.Name
		})
}

// Tag renders the run identity (workload/scheme/cores) used for
// telemetry series and checkpoint file names.
func (r *RunSpec) Tag() string { return r.key().tag() }

// CheckpointFile returns the file name Supervise uses for this run's
// checkpoint inside Options.CheckpointDir. Remote workers use it to
// seed a downloaded artifact where the supervisor will look for it.
func (r *RunSpec) CheckpointFile() string { return r.key().checkpointFile() }

// Traces builds the run's per-core trace readers, freshly positioned
// on every call.
func (r *RunSpec) Traces() ([]trace.Reader, error) { return buildTraces(r.key()) }

// key converts the public spec to the internal run key.
func (r *RunSpec) key() runKey {
	scale := r.Scale
	if scale < 1 {
		scale = 1
	}
	gapRecs := r.GAPRecords
	if gapRecs <= 0 {
		gapRecs = DefaultGAPRecords
	}
	return runKey{
		kind:     r.Kind,
		workload: r.Workload,
		scheme:   r.Scheme,
		cores:    r.Cores,
		prefetch: r.Prefetch,
		scale:    scale,
		warmup:   r.Warmup,
		measure:  r.Measure,
		gapRecs:  gapRecs,
	}
}

// Supervise runs one simulation under the options' retry policy —
// capped, jittered backoff; checkpoint resume with fallback; an
// attempt budget — exactly as experiment campaigns do.
// Cancelling ctx stops the running simulation, leaving its last
// scheduled checkpoint, and stops retrying; the returned error then
// wraps sim.ErrInterrupted and the context's error. This is the entry point care-server workers drive.
func (o *Options) Supervise(ctx context.Context, spec RunSpec) (sim.Result, error) {
	if err := spec.Validate(); err != nil {
		return sim.Result{}, err
	}
	return o.superviseSim(ctx, spec.key())
}

// SimError attaches the simulation's identity to a failure so a
// campaign summary names every failed run with enough context to
// reproduce it: policy, trace, base seed, and how many attempts the
// supervisor spent.
type SimError struct {
	// Workload and Scheme identify the run (trace and LLC policy).
	Workload, Scheme string
	// Cores is the simulated core count.
	Cores int
	// Seed is the base trace seed (core i streams from Seed+i for
	// synthetic workloads; GAP traces are seedless and report 0).
	Seed uint64
	// Attempts is how many times the supervisor tried the run.
	Attempts int
	// Err is the final attempt's failure.
	Err error
}

func (e *SimError) Error() string {
	return fmt.Sprintf("sim %s/%s/c%d (seed %d, %d attempt(s)): %v",
		e.Workload, e.Scheme, e.Cores, e.Seed, e.Attempts, e.Err)
}

func (e *SimError) Unwrap() error { return e.Err }

// Outcome records how one supervised simulation ended.
type Outcome struct {
	// Tag is the run identity (workload/scheme/cores).
	Tag string
	// Attempts is the number of executions (1 = clean first try).
	Attempts int
	// Resumed counts attempts that restored a checkpoint rather than
	// restarting from scratch.
	Resumed int
	// Completed is false for dropped runs.
	Completed bool
	// Err is the final error of a dropped run.
	Err error
}

// Report is the structured campaign outcome ledger. It is safe for
// concurrent use by parallel simulation workers.
type Report struct {
	mu       sync.Mutex
	outcomes []Outcome
}

// NewReport returns an empty report.
func NewReport() *Report { return &Report{} }

func (r *Report) add(oc Outcome) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.outcomes = append(r.outcomes, oc)
	r.mu.Unlock()
}

// Outcomes returns a copy of the recorded outcomes, sorted by tag.
func (r *Report) Outcomes() []Outcome {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Outcome(nil), r.outcomes...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// Counts returns (completed, retried, dropped). Retried counts runs
// that completed but needed more than one attempt.
func (r *Report) Counts() (completed, retried, dropped int) {
	for _, oc := range r.Outcomes() {
		switch {
		case !oc.Completed:
			dropped++
		case oc.Attempts > 1:
			completed++
			retried++
		default:
			completed++
		}
	}
	return
}

// Summary renders the degradation report: aggregate counts plus one
// line per run that needed intervention.
func (r *Report) Summary() string {
	completed, retried, dropped := r.Counts()
	var b strings.Builder
	fmt.Fprintf(&b, "campaign report: %d completed (%d retried), %d dropped\n",
		completed, retried, dropped)
	for _, oc := range r.Outcomes() {
		switch {
		case !oc.Completed:
			fmt.Fprintf(&b, "  dropped  %-32s attempts=%d resumed=%d: %v\n",
				oc.Tag, oc.Attempts, oc.Resumed, firstLine(oc.Err))
		case oc.Attempts > 1:
			fmt.Fprintf(&b, "  retried  %-32s attempts=%d resumed=%d\n",
				oc.Tag, oc.Attempts, oc.Resumed)
		}
	}
	return b.String()
}

// firstLine trims a multi-line error (FailureError carries a full
// diagnostic dump) to its headline for the summary table.
func firstLine(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// checkpointPath maps a run to its checkpoint file.
func (o *Options) checkpointPath(key runKey) string {
	if o.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(o.CheckpointDir, key.checkpointFile())
}

// maxRetryBackoff caps the doubling retry delay.
const maxRetryBackoff = 2 * time.Second

// retryDelay computes the jittered backoff before retry attempt n
// (n >= 2): the base delay doubles per attempt and is capped at
// maxRetryBackoff, then "equal jitter" keeps at least half of it and
// randomises the rest so parallel workers retrying simultaneously
// (e.g. after a shared-resource hiccup) do not stampede in lockstep.
// The jitter is a pure function of (tag, attempt, seed), so a given
// campaign configuration retries on an identical schedule every run —
// chaos tests stay deterministic.
func retryDelay(tag string, attempt int, backoff time.Duration, seed uint64) time.Duration {
	d := backoff
	for i := 2; i < attempt; i++ {
		d *= 2
		if d >= maxRetryBackoff {
			d = maxRetryBackoff
			break
		}
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", tag, attempt, seed)
	frac := float64(h.Sum64()%(1<<20)) / (1 << 20) // [0, 1)
	half := d / 2
	return half + time.Duration(frac*float64(d-half))
}

// superviseSim runs one simulation under the retry policy: failed
// attempts are retried after capped exponential backoff with
// deterministic jitter, resuming from the newest usable checkpoint
// (falling back from the live file to its rotated predecessor to a
// from-scratch restart when restores are refused). Retries stop when
// the attempt budget or ctx runs out. A run that exhausts its attempts
// is recorded as dropped and its last error returned with full
// context; the rest of the campaign keeps running. A ctx cancellation
// is not a drop: the interrupted run's error returns directly
// (wrapping sim.ErrInterrupted) and no outcome is recorded, because
// the caller requeues or resumes it from the last scheduled
// checkpoint, which the stop leaves untouched.
func (o *Options) superviseSim(ctx context.Context, key runKey) (sim.Result, error) {
	maxAttempts := o.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	backoff := o.RetryBackoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	ckptPath := o.checkpointPath(key)
	oc := Outcome{Tag: key.tag()}
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			// A stop request ends the retry loop: the run is reported
			// dropped with its last real failure.
			if Interrupted() {
				break
			}
			delay := retryDelay(oc.Tag, attempt, backoff, o.RetryJitterSeed)
			if !sleepCtx(ctx, delay) {
				break
			}
		}
		oc.Attempts = attempt
		// First attempts resume too when ResumeExisting is set
		// (care-server restarting after a crash continues drained or
		// killed jobs from their last checkpoint instead of starting
		// over).
		resume := (attempt > 1 || o.ResumeExisting) && ckptPath != ""
		r, resumed, err := runAttempt(ctx, key, o, ckptPath, resume, attempt)
		if resumed {
			oc.Resumed++
		}
		if err == nil {
			oc.Completed = true
			o.Report.add(oc)
			return r, nil
		}
		lastErr = err
		if errors.Is(err, sim.ErrInterrupted) && ctx.Err() != nil {
			// Cancelled mid-run: the last scheduled checkpoint (when
			// configured) is on disk; hand the interruption straight back.
			return r, err
		}
	}
	if err := ctx.Err(); err != nil {
		// Cancelled while sleeping between attempts: the run is not
		// dropped (the caller requeues it), so no outcome is recorded.
		return sim.Result{}, errors.Join(sim.ErrInterrupted, err, lastErr)
	}
	oc.Err = lastErr
	o.Report.add(oc)
	return sim.Result{}, &SimError{
		Workload: key.workload,
		Scheme:   key.scheme,
		Cores:    key.cores,
		Seed:     key.seed(),
		Attempts: oc.Attempts,
		Err:      lastErr,
	}
}

// sleepCtx sleeps for d unless ctx is cancelled first; it reports
// whether the full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
