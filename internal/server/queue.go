package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"care/careapi"
	"care/internal/faultinject"
)

// Queue is the durable job queue: an in-memory state machine whose
// every transition is committed to the journal *before* it is applied
// (write-ahead). Reconstructing a Queue from the journal therefore
// always reproduces the committed state at the moment of a crash —
// minus transitions that never committed, which is exactly the window
// the checkpoint/resume layer closes into exactly-once execution.
type Queue struct {
	mu     sync.Mutex
	jnl    *Journal
	jobs   map[string]*Job
	order  []string // submission order, for listings
	ready  []string // claimable pending job IDs, submission order
	nextID uint64
	closed bool
	// idem maps a claim idempotency key to the job it leased, for as
	// long as that claim is the job's current lease: a duplicated or
	// retried claim gets the same lease back instead of a second job.
	idem map[string]string
	// idemByJob is the reverse index so lease turnover can drop keys.
	idemByJob map[string]string
	// deadlines holds each leased job's wall-clock expiry. Runtime
	// state, never journaled: after a restart the replayed lease is
	// re-armed at now+TTL, giving a surviving worker one full TTL to
	// re-appear before the lease manager expires it.
	deadlines map[string]time.Time
	// notify, when set (SetNotify), receives one careapi.JobEvent per
	// committed transition plus heartbeat progress watermarks. Called
	// under q.mu — implementations must not block.
	notify func(careapi.JobEvent)
	// expirations counts leases the manager expired (a monotonic
	// /metrics counter, reset only by process restart).
	expirations uint64
	// replayedEvents is how many journal records the open replayed
	// (compaction uses it to decide whether rewriting pays off).
	replayedEvents int
}

// defaultLeaseTTL re-arms replayed leases whose events predate the
// TTL field, and bounds claim requests that ask for no (or an
// outlandish) TTL.
const (
	defaultLeaseTTL = 30 * time.Second
	maxLeaseTTL     = 10 * time.Minute
)

// OpenQueue opens the journal at path and replays it into a queue.
// Jobs that were running in-process when the previous process died —
// leased to careapi.LocalWorker, or started by a legacy start record —
// move back to pending (an implicit requeue: their executor died with
// the process, so there is no point waiting out a lease TTL). Jobs
// running under a remote lease stay running: the worker may well have
// survived the server restart, so its lease is re-armed at now+TTL and
// the lease manager expires it only if the worker never heartbeats
// again. inj may be nil; when set, its server crash classes fire
// inside journal appends.
func OpenQueue(journalPath string, inj *faultinject.Injector) (*Queue, error) {
	jnl, events, err := openJournalWithFallback(journalPath, inj)
	if err != nil {
		return nil, err
	}
	q := &Queue{
		jnl:            jnl,
		jobs:           make(map[string]*Job),
		idem:           make(map[string]string),
		idemByJob:      make(map[string]string),
		deadlines:      make(map[string]time.Time),
		replayedEvents: len(events),
	}
	for _, ev := range events {
		if err := q.replayEvent(ev); err != nil {
			jnl.Close()
			return nil, fmt.Errorf("%w: event %d: %w", ErrJournalCorrupt, ev.Seq, err)
		}
	}
	// Crash recovery: re-pend in-process jobs, re-arm remote leases,
	// and rebuild the ready list in submission order.
	now := time.Now()
	for _, id := range q.order {
		jb := q.jobs[id]
		switch {
		case jb.State == StateRunning && (jb.Worker == "" || jb.Worker == careapi.LocalWorker):
			jb.State = StatePending
			jb.Worker = ""
			jb.LeaseTTLMS = 0
			jb.Error = "requeued: server restarted mid-run"
			q.dropIdem(id)
		case jb.Leased():
			ttl := time.Duration(jb.LeaseTTLMS) * time.Millisecond
			if ttl <= 0 {
				ttl = defaultLeaseTTL
			}
			q.deadlines[id] = now.Add(ttl)
		}
		if jb.State == StatePending {
			q.ready = append(q.ready, id)
		}
	}
	return q, nil
}

// SetNotify installs the transition listener (the SSE hub). Call
// before the queue is shared; fn runs under q.mu and must not block.
func (q *Queue) SetNotify(fn func(careapi.JobEvent)) {
	q.mu.Lock()
	q.notify = fn
	q.mu.Unlock()
}

// replayEvent folds one journal record into the rebuilding queue.
// OpenQueue marks every error it returns as journal corruption.
func (q *Queue) replayEvent(ev Event) error {
	switch ev.Op {
	case opSubmit:
		if ev.Spec == nil {
			return errors.New("submit has no spec")
		}
		return q.replayJob(&Job{ID: ev.Job, Spec: *ev.Spec, State: StatePending, Seq: ev.Seq})
	case opSweep:
		if len(ev.Specs) == 0 || len(ev.Specs) != len(ev.IDs) {
			return fmt.Errorf("sweep has %d specs for %d ids", len(ev.Specs), len(ev.IDs))
		}
		for i := range ev.Specs {
			if err := q.replayJob(&Job{ID: ev.IDs[i], Spec: ev.Specs[i], State: StatePending, Seq: ev.Seq}); err != nil {
				return err
			}
		}
		return nil
	case opSnapshot:
		if ev.Spec == nil {
			return errors.New("snapshot has no spec")
		}
		jb := &Job{ID: ev.Job, Spec: *ev.Spec}
		if err := applyEvent(jb, ev); err != nil {
			return err
		}
		if err := q.replayJob(jb); err != nil {
			return err
		}
		if ev.Idem != "" && jb.Leased() {
			// A retried claim quoting the lease's key still gets it back.
			q.idem[ev.Idem] = jb.ID
			q.idemByJob[jb.ID] = ev.Idem
		}
		return nil
	}
	jb, ok := q.jobs[ev.Job]
	if !ok {
		return fmt.Errorf("%s for unsubmitted job %s", ev.Op, ev.Job)
	}
	return q.applyIndexed(jb, ev)
}

// replayJob adds a job that a replayed record creates. An ID the
// journal already created is refused: the job would be listed, and
// claimable, twice.
func (q *Queue) replayJob(jb *Job) error {
	if _, dup := q.jobs[jb.ID]; dup {
		return fmt.Errorf("job %s created twice", jb.ID)
	}
	q.addJob(jb)
	return nil
}

// addJob registers a freshly created job and advances the ID counter.
func (q *Queue) addJob(jb *Job) {
	q.jobs[jb.ID] = jb
	q.order = append(q.order, jb.ID)
	if n := parseJobID(jb.ID); n > q.nextID {
		q.nextID = n
	}
}

// parseJobID extracts the numeric part of a "jNNNNNN" job ID (0 if it
// does not parse — replay then just never reuses low IDs).
func parseJobID(id string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(id, "j"), 10, 64)
	return n
}

// commit journals ev, applies it to jb, and publishes the transition
// to stream subscribers. The append is the commit point; if it kills
// the process (chaos) or fails, the in-memory state is untouched.
// Callers hold q.mu.
func (q *Queue) commit(jb *Job, ev Event) error {
	if err := q.jnl.Append(&ev); err != nil {
		return err
	}
	if err := q.applyIndexed(jb, ev); err != nil {
		return err
	}
	q.publish(jb, ev)
	return nil
}

// publish pushes one committed transition to the stream listener.
// Renew records are custody narration, not state changes — they are
// excluded so heartbeat chatter does not flood subscribers (progress
// rides on dedicated watermark events instead).
func (q *Queue) publish(jb *Job, ev Event) {
	if q.notify == nil || ev.Op == opRenew {
		return
	}
	q.notify(careapi.JobEvent{
		Seq: ev.Seq, Op: ev.Op, Job: jb.ID, State: jb.State,
		Campaign: jb.Spec.Campaign, Worker: ev.Worker, Attempt: ev.Attempt,
		Error: ev.Error,
	})
}

// applyIndexed applies ev to jb and keeps the runtime side state in
// lockstep: the idempotency-key index (a claim registers its key; any
// event that ends that lease's custody retires it), the lease
// deadline, and the progress watermark. Callers hold q.mu (or are
// replaying before the queue is shared).
func (q *Queue) applyIndexed(jb *Job, ev Event) error {
	if err := applyEvent(jb, ev); err != nil {
		return err
	}
	switch ev.Op {
	case opClaim:
		q.dropIdem(jb.ID)
		delete(q.deadlines, jb.ID)
		jb.Progress = nil
		if ev.Idem != "" {
			q.idem[ev.Idem] = jb.ID
			q.idemByJob[jb.ID] = ev.Idem
		}
	case opStart, opExpire, opRequeue, opComplete, opFail, opCancel:
		q.dropIdem(jb.ID)
		delete(q.deadlines, jb.ID)
		jb.Progress = nil
	}
	return nil
}

// dropIdem retires the idempotency key registered for jb's lease.
func (q *Queue) dropIdem(job string) {
	if key, ok := q.idemByJob[job]; ok {
		delete(q.idem, key)
		delete(q.idemByJob, job)
	}
}

// Submit validates the spec, assigns an ID, commits the submission,
// and makes the job claimable. It returns the new job.
func (q *Queue) Submit(spec JobSpec) (Job, error) {
	if err := ValidateSpec(&spec); err != nil {
		return Job{}, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Job{}, fmt.Errorf("server: queue is shut down")
	}
	q.nextID++
	id := fmt.Sprintf("j%06d", q.nextID)
	ev := Event{Op: opSubmit, Job: id, Spec: &spec}
	if err := q.jnl.Append(&ev); err != nil {
		q.nextID--
		return Job{}, err
	}
	jb := &Job{ID: id, Spec: spec, State: StatePending, Seq: ev.Seq}
	q.jobs[id] = jb
	q.order = append(q.order, id)
	q.ready = append(q.ready, id)
	q.publish(jb, ev)
	return *jb, nil
}

// SubmitSweep validates every spec, assigns IDs, and commits the
// whole batch as ONE journal record, so a sweep is atomic by
// construction: either every cell of the cross product is durable or
// none is. (The old per-spec loop could crash — or hit an append
// error — half way and leave a partial sweep behind.)
func (q *Queue) SubmitSweep(specs []JobSpec) ([]Job, error) {
	if len(specs) == 0 {
		return nil, errors.New("server: empty sweep")
	}
	for i := range specs {
		if err := ValidateSpec(&specs[i]); err != nil {
			return nil, err
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, fmt.Errorf("server: queue is shut down")
	}
	ev := Event{Op: opSweep, Specs: specs, IDs: make([]string, len(specs))}
	for i := range specs {
		ev.IDs[i] = fmt.Sprintf("j%06d", q.nextID+uint64(i)+1)
	}
	if err := q.jnl.Append(&ev); err != nil {
		return nil, err
	}
	jobs := make([]Job, 0, len(specs))
	for i := range specs {
		jb := &Job{ID: ev.IDs[i], Spec: specs[i], State: StatePending, Seq: ev.Seq}
		q.addJob(jb)
		q.ready = append(q.ready, jb.ID)
		jobs = append(jobs, *jb)
		if q.notify != nil {
			// One atomic journal record fans out to one stream event per
			// job; Sub orders them inside the record ("seq.1", "seq.2", …).
			q.notify(careapi.JobEvent{
				Seq: ev.Seq, Sub: i + 1, Op: opSweep, Job: jb.ID,
				State: StatePending, Campaign: jb.Spec.Campaign,
			})
		}
	}
	return jobs, nil
}

// ---- claim scheduling ----
//
// Claims are matched, not queued: every claim scans the pending set
// for the best job its caller may run. Higher Priority claims first
// (backpressure: an urgent campaign preempts queue *position*, never
// custody — running jobs are untouched, so exactly-once is preserved
// by construction). Among equal priorities a capable worker is handed
// its most-demanding satisfiable job, leaving unconstrained work for
// less capable workers; final tie-break is ready-list order (arrival,
// with requeues moving to the back), so no job starves behind
// equal-priority peers and a bouncing job cannot livelock the head of
// its class.

// claimBefore reports whether a should be claimed strictly before b.
// Full ties return false: pickReady scans the ready list front to
// back, so the earlier entry keeps the slot.
func claimBefore(a, b *Job) bool {
	if a.Spec.Priority != b.Spec.Priority {
		return a.Spec.Priority > b.Spec.Priority
	}
	return a.Spec.Constraints.Demand() > b.Spec.Constraints.Demand()
}

// pickReady compacts q.ready (lazily dropping entries whose job is no
// longer pending) and returns the index of the best claimable job for
// a claimant with caps, or -1 when nothing matches. A nil caps
// claimant (a worker that registered nothing) only matches
// unconstrained jobs. Callers hold q.mu.
func (q *Queue) pickReady(caps *WorkerCaps) int {
	live := q.ready[:0]
	best := -1
	var bestJob *Job
	for _, id := range q.ready {
		jb := q.jobs[id]
		if jb.State != StatePending {
			continue // cancelled while queued
		}
		live = append(live, id)
		if !jb.Spec.Constraints.SatisfiedBy(caps) {
			continue
		}
		if best == -1 || claimBefore(jb, bestJob) {
			best, bestJob = len(live)-1, jb
		}
	}
	q.ready = live
	return best
}

// takeReady removes index i from the ready list and returns its job.
func (q *Queue) takeReady(i int) *Job {
	id := q.ready[i]
	q.ready = append(q.ready[:i], q.ready[i+1:]...)
	return q.jobs[id]
}

// ---- leases ----
//
// A worker's custody of a job is a time-bounded lease, identified by
// the pair (worker, token) where the token is the attempt number
// journaled in the claim event. Every lease operation is fenced: it
// succeeds only while that pair is the job's *current* lease. The
// decisive comparisons all happen under q.mu, so a lease expiry racing
// a complete is settled deterministically by whichever commit wins the
// lock — and the loser is rejected with ErrStaleLease rather than
// applied twice. Leases are per-job, so one worker
// process running several slots holds several independent leases;
// fencing never couples them.

// clampTTL normalises a requested lease TTL.
func clampTTL(ttlMS int64) time.Duration {
	ttl := time.Duration(ttlMS) * time.Millisecond
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	if ttl > maxLeaseTTL {
		ttl = maxLeaseTTL
	}
	return ttl
}

// ClaimRemote hands the next pending unconstrained job to a remote
// worker that registered no capabilities. See ClaimFor.
func (q *Queue) ClaimRemote(worker string, ttlMS int64, idem string) (Job, bool, error) {
	return q.ClaimFor(worker, ttlMS, idem, nil)
}

// ClaimFor hands the best matching pending job to a worker under a
// fresh lease, scheduling by priority, then constraint demand, then
// submission order, among the jobs whose constraints caps satisfies. It does not block: ok is false when nothing is
// claimable. A non-empty idem key makes the claim idempotent — if the
// key already maps to a lease this worker still holds (the response
// to an earlier identical claim was lost in the network), the same
// job and token are returned without a second journal event.
func (q *Queue) ClaimFor(worker string, ttlMS int64, idem string, caps *WorkerCaps) (Job, bool, error) {
	if worker == "" {
		return Job{}, false, fmt.Errorf("%w: claim needs a worker name", ErrBadRequest)
	}
	ttl := clampTTL(ttlMS)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Job{}, false, nil
	}
	if idem != "" {
		if id, ok := q.idem[idem]; ok {
			jb := q.jobs[id]
			if jb.Leased() && jb.Worker == worker {
				return q.view(jb), true, nil
			}
		}
	}
	if i := q.pickReady(caps); i >= 0 {
		jb := q.takeReady(i)
		ev := Event{
			Op: opClaim, Job: jb.ID, Attempt: jb.Attempts + 1,
			Worker: worker, TTLMS: ttl.Milliseconds(), Idem: idem, Caps: caps,
		}
		if err := q.commit(jb, ev); err != nil {
			q.ready = append([]string{jb.ID}, q.ready...)
			return Job{}, false, err
		}
		q.deadlines[jb.ID] = time.Now().Add(ttl)
		return q.view(jb), true, nil
	}
	return Job{}, false, nil
}

// checkLease validates that (worker, token) is id's current lease.
// Callers hold q.mu. The error spells out which fencing rule fired.
func (q *Queue) checkLease(id, worker string, token int) (*Job, error) {
	jb, ok := q.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch {
	case jb.Terminal():
		return nil, fmt.Errorf("%w: job %s is already %s (token %d, holder %q)",
			ErrStaleLease, id, jb.State, jb.Attempts, jb.Worker)
	case !jb.Leased():
		return nil, fmt.Errorf("%w: job %s has no active lease (state %s)", ErrStaleLease, id, jb.State)
	case jb.Worker != worker || jb.Attempts != token:
		return nil, fmt.Errorf("%w: job %s is held by %q with token %d, not %q/%d",
			ErrStaleLease, id, jb.Worker, jb.Attempts, worker, token)
	}
	return jb, nil
}

// CheckLease validates a lease without renewing it (artifact up/down-
// loads use it so a partitioned worker cannot overwrite a checkpoint
// it no longer owns).
func (q *Queue) CheckLease(id, worker string, token int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, err := q.checkLease(id, worker, token)
	return err
}

// Renew extends a held lease by its TTL (a heartbeat), optionally
// recording the holder's progress watermark. The watermark is fenced
// exactly like the renewal itself — a stale holder can neither keep
// the lease nor pollute the stream — and is pushed to subscribers as
// an id-less progress event (runtime state, never journaled). The
// returned job copy carries the CancelRequested flag so the holder
// learns it should unwind.
func (q *Queue) Renew(id, worker string, token int, p *Progress) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb, err := q.checkLease(id, worker, token)
	if err != nil {
		return Job{}, err
	}
	if err := q.commit(jb, Event{Op: opRenew, Job: id, Attempt: token, Worker: worker}); err != nil {
		return Job{}, err
	}
	q.deadlines[id] = time.Now().Add(clampTTL(jb.LeaseTTLMS))
	if p != nil {
		wm := *p
		wm.Job, wm.Worker = id, worker
		jb.Progress = &wm
		if q.notify != nil {
			q.notify(careapi.JobEvent{
				Op: opProgress, Job: id, State: jb.State,
				Campaign: jb.Spec.Campaign, Worker: worker, Attempt: token,
				Progress: &wm,
			})
		}
	}
	return q.view(jb), nil
}

// CompleteRemote commits a leased job's canonical result under its
// fencing token. A retried complete (the first response was lost) is
// idempotent: if the job is already done *by this exact lease*, it
// reports success without a second event. Any other mismatch is a
// fenced rejection.
func (q *Queue) CompleteRemote(id, worker string, token int, result []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if jb, ok := q.jobs[id]; ok &&
		jb.State == StateDone && jb.Worker == worker && jb.Attempts == token {
		return nil // duplicate of the winning complete
	}
	jb, err := q.checkLease(id, worker, token)
	if err != nil {
		return err
	}
	return q.commit(jb, Event{Op: opComplete, Job: id, Attempt: token, Worker: worker, Result: result})
}

// FailRemote ends a leased job under its fencing token. kind selects
// the transition: "requeue" (transient worker-side trouble — drain,
// resource exhaustion — the job becomes claimable again), "fail"
// (permanent), or "cancel" (acknowledging a server-requested cancel;
// rejected if no cancel is pending).
func (q *Queue) FailRemote(id, worker string, token int, kind, reason string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb, err := q.checkLease(id, worker, token)
	if err != nil {
		return err
	}
	switch kind {
	case "requeue":
		if err := q.commit(jb, Event{Op: opRequeue, Job: id, Attempt: token, Worker: worker, Error: reason}); err != nil {
			return err
		}
		q.ready = append(q.ready, id)
		return nil
	case "fail":
		return q.commit(jb, Event{Op: opFail, Job: id, Attempt: token, Worker: worker, Error: reason})
	case "cancel":
		if !jb.CancelRequested {
			return fmt.Errorf("%w: cancel ack for job %s with no cancel pending", ErrBadTransition, id)
		}
		return q.commit(jb, Event{Op: opCancel, Job: id, Attempt: token, Worker: worker})
	default:
		return fmt.Errorf("%w: unknown fail kind %q (want requeue, fail, or cancel)", ErrBadRequest, kind)
	}
}

// RequestCancelLeased marks a leased job for cancellation: the holder
// learns on its next heartbeat and acknowledges with FailRemote
// kind=cancel; if the holder never comes back, the lease manager
// converts the expiry into the cancel. Returns false when the job is
// not currently leased.
func (q *Queue) RequestCancelLeased(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb, ok := q.jobs[id]
	if !ok || !jb.Leased() {
		return false
	}
	jb.CancelRequested = true
	return true
}

// ExpireLeases commits an expire event for every lease whose deadline
// has passed: the fencing moment where a partitioned or dead worker
// durably loses custody. Expired jobs return to pending (or straight
// to cancelled when a cancel was waiting on the holder). Journal
// failures leave the lease in place for the next sweep. It returns
// the IDs expired this call.
func (q *Queue) ExpireLeases(now time.Time) []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	var expired []string
	for _, id := range q.order {
		jb := q.jobs[id]
		deadline, armed := q.deadlines[id]
		if !jb.Leased() || !armed || now.Before(deadline) {
			continue
		}
		token, holder := jb.Attempts, jb.Worker
		if jb.CancelRequested {
			if err := q.commit(jb, Event{Op: opCancel, Job: id, Attempt: token, Worker: holder}); err != nil {
				continue
			}
		} else {
			reason := fmt.Sprintf("lease expired: worker %q (token %d) stopped heartbeating", holder, token)
			if err := q.commit(jb, Event{Op: opExpire, Job: id, Attempt: token, Worker: holder, Error: reason}); err != nil {
				continue
			}
			q.ready = append(q.ready, id)
		}
		q.expirations++
		expired = append(expired, id)
	}
	return expired
}

// Expirations returns the total number of leases expired so far.
func (q *Queue) Expirations() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expirations
}

// ActiveLeases counts jobs currently running under a lease (the
// in-process worker's included).
func (q *Queue) ActiveLeases() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, jb := range q.jobs {
		if jb.Leased() {
			n++
		}
	}
	return n
}

// view copies a job for the API, computing the remaining lease time.
// Callers hold q.mu.
func (q *Queue) view(jb *Job) Job {
	cp := *jb
	if deadline, ok := q.deadlines[jb.ID]; ok && jb.Leased() {
		if left := time.Until(deadline); left > 0 {
			cp.LeaseMSLeft = left.Milliseconds()
		}
	}
	return cp
}

// Cancel commits a pending job to cancelled. A running job is
// cancelled through its lease (RequestCancelLeased).
func (q *Queue) Cancel(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if jb.State != StatePending {
		return fmt.Errorf("%w: cancel of %s job %s", ErrBadTransition, jb.State, id)
	}
	return q.commit(jb, Event{Op: opCancel, Job: id})
}

// Get returns a copy of the job.
func (q *Queue) Get(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jb, ok := q.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return q.view(jb), nil
}

// Jobs returns copies of every job in submission order.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.view(q.jobs[id]))
	}
	return out
}

// List returns one filtered page of jobs in submission order. state
// and campaign filter when non-empty; limit bounds the page (0 =
// unlimited); cursor resumes after the job ID a previous page ended
// on. total counts every matching job regardless of paging, and next
// is the cursor for the following page ("" on the last). Cursoring is
// by job ID ordinal, so a page boundary stays valid even if the
// boundary job itself changes state between requests.
func (q *Queue) List(state, campaign string, limit int, cursor string) (jobs []Job, total int, next string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	after := uint64(0)
	if cursor != "" {
		after = parseJobID(cursor)
	}
	more := false
	for _, id := range q.order {
		jb := q.jobs[id]
		if state != "" && jb.State != state {
			continue
		}
		if campaign != "" && jb.Spec.Campaign != campaign {
			continue
		}
		total++
		if parseJobID(id) <= after {
			continue
		}
		if limit > 0 && len(jobs) == limit {
			more = true
			continue
		}
		jobs = append(jobs, q.view(jb))
	}
	if more && len(jobs) > 0 {
		next = jobs[len(jobs)-1].ID
	}
	return jobs, total, next
}

// Depth returns the number of claimable pending jobs.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, id := range q.ready {
		if q.jobs[id].State == StatePending {
			n++
		}
	}
	return n
}

// Counts returns the number of jobs in each state.
func (q *Queue) Counts() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	counts := make(map[string]int)
	for _, jb := range q.jobs {
		counts[jb.State]++
	}
	return counts
}

// PendingByPriority returns the pending backlog bucketed by priority
// (the /metrics backpressure gauge).
func (q *Queue) PendingByPriority() map[int]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[int]int)
	for _, jb := range q.jobs {
		if jb.State == StatePending {
			out[jb.Spec.Priority]++
		}
	}
	return out
}

// Seq returns the journal's last committed sequence number.
func (q *Queue) Seq() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.jnl.Seq()
}

// Stop ends claiming. The journal stays open so in-flight jobs can
// still commit their requeue/complete events while draining.
func (q *Queue) Stop() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// Close stops claims and closes the journal. Call only after every
// in-flight job has committed its final transition.
func (q *Queue) Close() error {
	q.Stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.jnl == nil {
		return nil
	}
	err := q.jnl.Close()
	q.jnl = nil
	return err
}
