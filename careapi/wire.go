package careapi

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ---- job endpoints ----

// SubmitRequest submits jobs (POST /api/v1/jobs): either one fully
// specified job, or a sweep — the cross product of Workloads ×
// Policies × CoreCounts, sharing the remaining knobs (including
// Campaign, Priority, and Constraints). Singular and plural fields
// merge.
type SubmitRequest struct {
	JobSpec
	Workloads  []string `json:"workloads,omitempty"`
	Policies   []string `json:"policies,omitempty"`
	CoreCounts []int    `json:"core_counts,omitempty"`
}

// Specs expands the request into concrete job specs.
func (req *SubmitRequest) Specs() []JobSpec {
	workloads := req.Workloads
	if len(workloads) == 0 {
		workloads = []string{req.Workload}
	}
	policies := req.Policies
	if len(policies) == 0 {
		policies = []string{req.Policy}
	}
	cores := req.CoreCounts
	if len(cores) == 0 {
		cores = []int{req.Cores}
	}
	var out []JobSpec
	for _, w := range workloads {
		for _, p := range policies {
			for _, c := range cores {
				spec := req.JobSpec
				spec.Workload, spec.Policy, spec.Cores = w, p, c
				out = append(out, spec)
			}
		}
	}
	return out
}

// SubmitResponse acknowledges a committed submission.
type SubmitResponse struct {
	Jobs []Job `json:"jobs"`
}

// ListResponse is the GET /api/v1/jobs body. With no query
// parameters it holds every job; with ?limit= it holds one page and
// NextCursor resumes the listing (pass it back as ?cursor=).
type ListResponse struct {
	Jobs []Job `json:"jobs"`
	// Total counts jobs matching the filter, across all pages.
	Total int `json:"total"`
	// NextCursor is non-empty when more pages remain.
	NextCursor string `json:"next_cursor,omitempty"`
}

// ---- worker endpoints ----

// ClaimRequest asks for the next matching pending job under a fresh
// lease (POST /api/v1/worker/claim).
type ClaimRequest struct {
	// Worker is the caller's stable name (fencing identifies a lease by
	// worker + token).
	Worker string `json:"worker"`
	// Slot distinguishes concurrent claim loops inside one worker
	// process; leases stay per-job, so slots of the same worker hold
	// independent leases.
	Slot int `json:"slot,omitempty"`
	// TTLMS is the requested lease duration (0 = server default; the
	// server clamps outlandish values).
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Idem makes the claim idempotent: a retry quoting the same key
	// gets the original lease back instead of a second job.
	Idem string `json:"idem,omitempty"`
	// Caps registers the worker's capabilities; constrained jobs are
	// only handed to workers whose caps satisfy them. A nil Caps
	// claims only unconstrained jobs.
	Caps *WorkerCaps `json:"caps,omitempty"`
}

// ClaimResponse carries the leased job. The lease token is
// Job.Attempts; the worker quotes it on every subsequent call.
type ClaimResponse struct {
	Job Job `json:"job"`
	// HasArtifact tells the worker a checkpoint artifact exists to
	// download before starting (a previous holder got part way).
	HasArtifact bool `json:"has_artifact"`
}

// HeartbeatRequest renews a lease (POST /api/v1/worker/heartbeat),
// optionally piggybacking the job's progress watermark.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Job    string `json:"job"`
	Token  int    `json:"token"`
	// Progress is the holder's execution watermark; the server stores
	// it on the job and pushes it to event-stream subscribers.
	Progress *Progress `json:"progress,omitempty"`
}

// HeartbeatResponse reports the renewed lease and any server-side
// cancel waiting for the holder to unwind.
type HeartbeatResponse struct {
	LeaseMSLeft     int64 `json:"lease_ms_left"`
	CancelRequested bool  `json:"cancel_requested"`
}

// CompleteRequest commits a job's canonical result under its lease
// (POST /api/v1/worker/complete).
type CompleteRequest struct {
	Worker string          `json:"worker"`
	Job    string          `json:"job"`
	Token  int             `json:"token"`
	Result json.RawMessage `json:"result"`
}

// FailRequest ends a lease without a result (POST
// /api/v1/worker/fail). Kind selects the transition: "requeue"
// (transient; job becomes claimable again), "fail" (permanent), or
// "cancel" (acknowledging a requested cancel).
type FailRequest struct {
	Worker string `json:"worker"`
	Job    string `json:"job"`
	Token  int    `json:"token"`
	Kind   string `json:"kind"`
	Reason string `json:"reason,omitempty"`
}

// StatusResponse acknowledges a complete/fail transition.
type StatusResponse struct {
	Status string `json:"status"`
}

// ArtifactStored acknowledges an artifact upload.
type ArtifactStored struct {
	Status string `json:"status"`
	Bytes  int64  `json:"bytes"`
}

// ---- event stream (GET /api/v1/jobs/events) ----

// JobEvent is one server-sent event on the job stream: a journaled
// state transition (SSE event type "job", id = its EventID) or a
// progress watermark (SSE event type "progress", no id — progress is
// ephemeral and simply refreshes after a resume).
type JobEvent struct {
	// Seq is the journal sequence number of the committing record;
	// Sub distinguishes the jobs of one atomic sweep record.
	Seq uint64 `json:"seq"`
	Sub int    `json:"sub,omitempty"`
	// Op is the journal transition (submit, sweep, claim, start,
	// expire, requeue, complete, fail, cancel, state).
	Op string `json:"op"`
	// Job and State identify the job and the state it entered.
	Job   string `json:"job"`
	State string `json:"state"`
	// Campaign is the job's campaign label, for client-side fan-out.
	Campaign string `json:"campaign,omitempty"`
	// Worker and Attempt identify the lease involved, when one is.
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// Error rides on fail/requeue/expire transitions.
	Error string `json:"error,omitempty"`
	// Progress rides on progress events only.
	Progress *Progress `json:"progress,omitempty"`
}

// EventID renders the event's SSE id: "seq" for single-job records,
// "seq.sub" for the sub-events of an atomic sweep record. IDs are
// totally ordered by ParseEventID/Less and stable across server
// restarts (they are journal positions).
func (ev *JobEvent) EventID() string {
	if ev.Sub > 0 {
		return fmt.Sprintf("%d.%d", ev.Seq, ev.Sub)
	}
	return strconv.FormatUint(ev.Seq, 10)
}

// EventCursor is a resume position on the job stream, as carried in
// the Last-Event-ID header (or ?after= query parameter).
type EventCursor struct {
	Seq uint64
	Sub int
}

// ParseEventID parses an SSE id ("42" or "42.3") into a cursor. A
// bare "42" marks the whole record consumed, so the cursor's Sub is
// saturated; "42.3" resumes inside record 42.
func ParseEventID(s string) (EventCursor, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return EventCursor{}, fmt.Errorf("empty event id")
	}
	seqPart, subPart, dotted := strings.Cut(s, ".")
	seq, err := strconv.ParseUint(seqPart, 10, 64)
	if err != nil {
		return EventCursor{}, fmt.Errorf("bad event id %q: %v", s, err)
	}
	c := EventCursor{Seq: seq, Sub: math.MaxInt}
	if dotted {
		sub, err := strconv.Atoi(subPart)
		if err != nil || sub < 0 {
			return EventCursor{}, fmt.Errorf("bad event id %q", s)
		}
		c.Sub = sub
	}
	return c, nil
}

// After reports whether the event lies strictly beyond the cursor —
// i.e. a resuming client that last saw c still needs it.
func (ev *JobEvent) After(c EventCursor) bool {
	if ev.Seq != c.Seq {
		return ev.Seq > c.Seq
	}
	return ev.Sub > c.Sub
}

// ---- health / observability ----

// WorkerFleet is one worker's row in /healthz: when it last
// contacted the server, and the capability envelope it registered on
// its most recent claim.
type WorkerFleet struct {
	Name        string      `json:"name"`
	LastSeenSec float64     `json:"last_seen_sec"`
	Caps        *WorkerCaps `json:"caps,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	Status     string         `json:"status"`
	Draining   bool           `json:"draining"`
	QueueDepth int            `json:"queue_depth"`
	Jobs       map[string]int `json:"jobs"`
	JournalSeq uint64         `json:"journal_seq"`
	UptimeSec  float64        `json:"uptime_sec"`
	// Fleet view: jobs currently leased to workers (the in-process
	// one included), how many leases the manager has expired this
	// process lifetime, each known worker's last-contact age, and the
	// checkpoint artifact store's footprint.
	ActiveLeases     int           `json:"active_leases"`
	LeaseExpirations uint64        `json:"lease_expirations"`
	Fleet            []WorkerFleet `json:"fleet,omitempty"`
	ArtifactCount    int           `json:"artifact_count"`
	ArtifactBytes    int64         `json:"artifact_bytes"`
	// SSESubscribers counts live /api/v1/jobs/events streams.
	SSESubscribers int `json:"sse_subscribers"`
}

// DegradationReport is the /api/v1/report body: what the campaign
// survived. CI chaos-smoke uploads it as a build artifact.
type DegradationReport struct {
	Jobs         map[string]int `json:"jobs"`
	JournalSeq   uint64         `json:"journal_seq"`
	Completed    int            `json:"runs_completed"`
	Retried      int            `json:"runs_retried"`
	Dropped      int            `json:"runs_dropped"`
	WorkerPanics uint64         `json:"worker_panics"`
	Summary      string         `json:"summary"`
}
