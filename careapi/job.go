package careapi

import (
	"encoding/json"
	"time"
)

// JobSpec describes one simulation job as submitted over the API. It
// is the unit the server journals: reproducing a job's bytes requires
// the same spec, including the checkpoint schedule.
type JobSpec struct {
	// Kind is "spec" or "gap".
	Kind string `json:"kind"`
	// Workload names the trace source (e.g. "429.mcf", "bfs-or").
	Workload string `json:"workload"`
	// Policy is the LLC replacement policy name (e.g. "care", "lru").
	Policy string `json:"policy"`
	// Cores is the simulated core count.
	Cores int `json:"cores"`
	// Prefetch enables the paper's prefetcher pairing.
	Prefetch bool `json:"prefetch,omitempty"`
	// Scale divides the hierarchy (0 = 1, the paper-size caches).
	Scale int `json:"scale,omitempty"`
	// Warmup and Measure are per-core instruction budgets.
	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure"`
	// GAPRecords caps GAP kernel traces (0 = harness default).
	GAPRecords int `json:"gap_records,omitempty"`
	// CheckpointEvery is the measured-instruction checkpoint period
	// (0 = a quarter of Measure). The result of a job depends on this
	// schedule, so reproducing a job's bytes requires the same value.
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
	// Retries is the in-worker retry budget per execution
	// (harness MaxAttempts = Retries+1).
	Retries int `json:"retries,omitempty"`
	// TimeoutSec bounds one execution's wall clock (0 = unlimited).
	TimeoutSec int `json:"timeout_sec,omitempty"`
	// Faults is a faultinject spec applied inside the job's
	// simulation (chaos testing; "" = none).
	Faults string `json:"faults,omitempty"`
	// Campaign is an optional client-chosen grouping label shared by
	// every cell of a sweep; list and event-stream calls filter on it.
	Campaign string `json:"campaign,omitempty"`
	// Priority orders the pending queue: higher claims first. Jobs of
	// equal priority claim in submission order. Range [-100, 100].
	Priority int `json:"priority,omitempty"`
	// Constraints restrict which workers may claim the job. A nil
	// Constraints runs anywhere (including the server's in-process
	// worker); a constrained job runs only on workers whose registered
	// capabilities satisfy it.
	Constraints *Constraints `json:"constraints,omitempty"`
}

// Timeout returns the per-execution deadline, or 0 for none.
func (s *JobSpec) Timeout() time.Duration {
	return time.Duration(s.TimeoutSec) * time.Second
}

// Constraints is a job's placement requirement, matched against the
// claiming worker's registered WorkerCaps.
type Constraints struct {
	// MinCores requires at least this many physical cores.
	MinCores int `json:"min_cores,omitempty"`
	// MinMemMB requires at least this much memory, in MiB.
	MinMemMB int64 `json:"min_mem_mb,omitempty"`
	// Labels must all be present on the worker (subset match).
	Labels []string `json:"labels,omitempty"`
}

// Zero reports whether c constrains nothing (nil or all-empty); such
// a job runs on any worker, registered or not.
func (c *Constraints) Zero() bool {
	return c == nil || (c.MinCores == 0 && c.MinMemMB == 0 && len(c.Labels) == 0)
}

// SatisfiedBy reports whether a worker with caps may run the job. An
// unconstrained job is satisfied by anything, including an
// unregistered (nil-caps) worker; a constrained job needs registered
// capabilities that meet every requirement.
func (c *Constraints) SatisfiedBy(w *WorkerCaps) bool {
	if c.Zero() {
		return true
	}
	if w == nil {
		return false
	}
	if c.MinCores > 0 && w.Cores < c.MinCores {
		return false
	}
	if c.MinMemMB > 0 && w.MemMB < c.MinMemMB {
		return false
	}
	for _, want := range c.Labels {
		found := false
		for _, have := range w.Labels {
			if have == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Demand scores how hard the job is to place; the scheduler hands a
// capable worker its most-demanding satisfiable job first so that
// easy jobs are left over for less capable workers.
func (c *Constraints) Demand() int {
	if c == nil {
		return 0
	}
	d := c.MinCores + len(c.Labels)
	if c.MinMemMB > 0 {
		d++
	}
	return d
}

// WorkerCaps is what a worker registers at claim time: the capability
// envelope constraints are matched against.
type WorkerCaps struct {
	// Cores is the worker machine's usable core count.
	Cores int `json:"cores,omitempty"`
	// MemMB is the worker machine's usable memory in MiB (0 =
	// unknown; such a worker cannot claim memory-constrained jobs).
	MemMB int64 `json:"mem_mb,omitempty"`
	// Labels are free-form placement tags (e.g. "ssd", "numa").
	Labels []string `json:"labels,omitempty"`
	// Slots is how many jobs the worker runs concurrently.
	Slots int `json:"slots,omitempty"`
}

// Progress is a job's execution watermark, reported by the holder on
// every heartbeat and pushed to event-stream subscribers. It is
// runtime state, never journaled: after a failover the next holder's
// first heartbeat refreshes it.
type Progress struct {
	// Job is filled in server-side on stream events.
	Job string `json:"job,omitempty"`
	// Worker and Slot identify who is executing.
	Worker string `json:"worker,omitempty"`
	Slot   int    `json:"slot,omitempty"`
	// Phase is "warmup" or "measure".
	Phase string `json:"phase,omitempty"`
	// Cycles and Instructions are the simulation clock and the
	// measured-instruction count at the last on-schedule checkpoint.
	Cycles       uint64 `json:"cycles,omitempty"`
	Instructions uint64 `json:"instructions,omitempty"`
	// Checkpoint is the ordinal of that checkpoint on the job's
	// deterministic schedule (Instructions / CheckpointEvery).
	Checkpoint uint64 `json:"checkpoint,omitempty"`
	// ElapsedMS is how long the current attempt has been running.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
}

// Job is the wire view of one submitted job.
type Job struct {
	// ID is the server-assigned job identifier ("j000001", ...).
	ID string `json:"id"`
	// Spec is the submitted job description.
	Spec JobSpec `json:"spec"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Attempts counts server-level executions: how many times a worker
	// claimed this job. The attempt number doubles as the lease's
	// **fencing token**: a worker may only
	// heartbeat, upload artifacts for, or complete the job while quoting
	// the attempt number of its own claim, so a worker whose lease
	// expired (and whose job was re-claimed at a higher attempt) is
	// rejected no matter how late its requests arrive.
	Attempts int `json:"attempts"`
	// Worker names the worker holding (or, on a done job, the one that
	// completed) the lease; "" for executions journaled before every
	// job ran under a lease.
	Worker string `json:"worker,omitempty"`
	// LeaseTTLMS is the lease duration granted at claim/renew time.
	LeaseTTLMS int64 `json:"lease_ttl_ms,omitempty"`
	// LeaseMSLeft is how much of the lease remains, computed when the
	// job is copied out for the API (0 when no lease is active).
	LeaseMSLeft int64 `json:"lease_ms_left,omitempty"`
	// CancelRequested is set when a cancel arrived for a leased job;
	// the holder learns on its next heartbeat and unwinds.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Progress is the holder's latest heartbeat watermark (running
	// jobs only).
	Progress *Progress `json:"progress,omitempty"`
	// Result is the canonical result JSON (terminal done state only).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure reason (terminal failed state, and the last
	// requeue reason while pending again).
	Error string `json:"error,omitempty"`
	// Seq is the journal sequence of the job's latest transition.
	Seq uint64 `json:"seq"`
}

// Leased reports whether the job is running under a lease.
func (jb *Job) Leased() bool {
	return jb.State == StateRunning && jb.Worker != ""
}

// Terminal reports whether the job has reached a final state.
func (jb *Job) Terminal() bool {
	switch jb.State {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}
