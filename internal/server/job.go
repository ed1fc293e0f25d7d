package server

import (
	"encoding/json"
	"errors"
	"fmt"

	"care/careapi"
	"care/internal/faultinject"
	"care/internal/harness"
	"care/internal/sim"
)

// The wire types are defined once, in package careapi, so server,
// worker client, dashboards, and tests all speak the same structs.
// The server aliases them under their historical names; everything
// journaled (JobSpec inside events) is a careapi type, which is what
// keeps the journal format and the API surface from drifting apart.
type (
	Job         = careapi.Job
	JobSpec     = careapi.JobSpec
	Constraints = careapi.Constraints
	WorkerCaps  = careapi.WorkerCaps
	Progress    = careapi.Progress
)

// Job states (re-exported from careapi).
const (
	StatePending   = careapi.StatePending
	StateRunning   = careapi.StateRunning
	StateDone      = careapi.StateDone
	StateFailed    = careapi.StateFailed
	StateCancelled = careapi.StateCancelled
)

// maxPriority bounds the priority knob; the range is part of the API
// contract (careapi.JobSpec.Priority).
const maxPriority = 100

// ValidateSpec rejects malformed specs at the API boundary.
func ValidateSpec(s *JobSpec) error {
	rs := harness.RunSpecOf(s)
	if err := rs.Validate(); err != nil {
		return err
	}
	if s.Retries < 0 {
		return fmt.Errorf("server: negative retry budget %d", s.Retries)
	}
	if s.TimeoutSec < 0 {
		return fmt.Errorf("server: negative timeout %d", s.TimeoutSec)
	}
	if s.Priority < -maxPriority || s.Priority > maxPriority {
		return fmt.Errorf("server: priority %d outside [%d, %d]", s.Priority, -maxPriority, maxPriority)
	}
	if c := s.Constraints; c != nil {
		if c.MinCores < 0 || c.MinMemMB < 0 {
			return fmt.Errorf("server: negative constraint (min_cores %d, min_mem_mb %d)", c.MinCores, c.MinMemMB)
		}
		for _, l := range c.Labels {
			if l == "" {
				return errors.New("server: empty constraint label")
			}
		}
	}
	if s.Faults != "" {
		if _, err := faultinject.ParseSpec(s.Faults); err != nil {
			return err
		}
	}
	return nil
}

// RunSpecOf forwards to harness.RunSpecOf for the perfbench module,
// which calls it through this package.
func RunSpecOf(s *JobSpec) harness.RunSpec { return harness.RunSpecOf(s) }

// MarshalResult forwards to harness.MarshalResult for the perfbench
// module, which calls it through this package.
func MarshalResult(r sim.Result) (json.RawMessage, error) { return harness.MarshalResult(r) }

// applyEvent folds one journal event into the job, enforcing the
// exactly-once invariant: a terminal job never transitions again.
// Lease deadlines and progress watermarks are runtime state owned by
// the queue, not touched here.
func applyEvent(jb *Job, ev Event) error {
	if jb.Terminal() {
		return fmt.Errorf("%w: job %s is %s; event %q violates exactly-once", ErrDuplicateTerminal, jb.ID, jb.State, ev.Op)
	}
	switch ev.Op {
	case opStart:
		// Legacy: the in-process pool that predates leases journaled its
		// claims as start records, naming no worker. Replay re-pends a
		// job left running by one (OpenQueue).
		jb.State = StateRunning
		jb.Attempts = ev.Attempt
		jb.Worker = ""
		jb.LeaseTTLMS = 0
	case opClaim:
		// A claim must advance the fencing token, and only a job
		// nobody holds is claimable. A job left running in-process
		// (LocalWorker or a legacy start record) counts as free: a
		// restart re-pends it in memory without journaling a requeue.
		if ev.Attempt <= jb.Attempts {
			return fmt.Errorf("claim of job %s at attempt %d does not advance its %d attempts", jb.ID, ev.Attempt, jb.Attempts)
		}
		if jb.Leased() && jb.Worker != careapi.LocalWorker {
			return fmt.Errorf("claim of job %s by %s while %s holds its lease", jb.ID, ev.Worker, jb.Worker)
		}
		jb.State = StateRunning
		jb.Attempts = ev.Attempt
		jb.Worker = ev.Worker
		jb.LeaseTTLMS = ev.TTLMS
	case opRenew:
		// Older servers journaled every heartbeat. The renewed deadline
		// is runtime state, so the record changes nothing.
	case opExpire:
		jb.State = StatePending
		jb.Worker = ""
		jb.LeaseTTLMS = 0
		jb.Error = ev.Error
	case opRequeue:
		jb.State = StatePending
		jb.Worker = ""
		jb.LeaseTTLMS = 0
		jb.Error = ev.Error
	case opComplete:
		jb.State = StateDone
		jb.Result = ev.Result
		jb.Error = ""
		// Worker and Attempts survive: they identify the completing
		// lease, which is what makes a retried complete idempotent and
		// a stale one provably rejected.
	case opFail:
		jb.State = StateFailed
		jb.Error = ev.Error
	case opCancel:
		jb.State = StateCancelled
	case opSnapshot:
		// Written by older servers' startup compaction, still
		// replayed: the job's entire state in one record, only ever the
		// first record for its ID.
		switch ev.State {
		case StatePending, StateRunning, StateDone, StateFailed, StateCancelled:
		default:
			return fmt.Errorf("snapshot of job %s has unknown state %q", jb.ID, ev.State)
		}
		jb.State = ev.State
		jb.Attempts = ev.Attempt
		jb.Worker = ev.Worker
		jb.LeaseTTLMS = ev.TTLMS
		jb.Result = ev.Result
		jb.Error = ev.Error
	default:
		return fmt.Errorf("server: unknown journal op %q", ev.Op)
	}
	jb.Seq = ev.Seq
	return nil
}

// Journal ops (Event.Op values). This server never writes opSubmit,
// opStart, opRenew or opSnapshot; replay still reads them from
// journals older servers wrote. opProgress is NOT a journal op: it
// appears only on the event stream (heartbeat watermarks are runtime
// state, never journaled).
const (
	opSubmit   = "submit"
	opSweep    = "sweep"
	opStart    = "start"
	opClaim    = "claim"
	opRenew    = "renew"
	opExpire   = "expire"
	opRequeue  = "requeue"
	opComplete = "complete"
	opFail     = "fail"
	opCancel   = "cancel"
	opSnapshot = "snapshot"
	opProgress = "progress"
)

// ErrUnknownJob is returned for lookups and transitions on job IDs
// the journal has never seen.
var ErrUnknownJob = errors.New("server: unknown job")

// ErrBadTransition is returned when an API call asks for a transition
// the job's current state does not allow (e.g. cancelling a done job).
var ErrBadTransition = errors.New("server: invalid job transition")

// ErrDuplicateTerminal marks a journal (or call sequence) that tries
// to transition a job that already reached a terminal state — the
// exactly-once invariant caught a violation.
var ErrDuplicateTerminal = errors.New("server: duplicate terminal transition")

// ErrBadRequest is returned for a worker call whose request is
// malformed (a claim without a worker name, an unknown fail kind).
var ErrBadRequest = errors.New("server: bad request")

// ErrStaleLease is the fencing rejection: a worker quoted a lease
// token (job attempt number) that is no longer the job's current
// lease — its lease expired, the job was re-claimed, or it already
// ended. The operation was NOT applied.
var ErrStaleLease = errors.New("server: stale lease")
