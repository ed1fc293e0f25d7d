package server

import (
	"errors"
	"path/filepath"
	"testing"

	"care/careapi"
)

func testSpec() JobSpec {
	return JobSpec{Kind: "spec", Workload: "429.mcf", Policy: "care", Cores: 1, Warmup: 100, Measure: 1000}
}

func openTestQueue(t *testing.T, path string) *Queue {
	t.Helper()
	q, err := OpenQueue(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	q.jnl.nosync = true
	return q
}

// submit commits spec as a one-job sweep, the record handleSubmit
// writes for a single spec.
func submit(q *Queue, spec JobSpec) (Job, error) {
	jobs, err := q.SubmitSweep([]JobSpec{spec})
	if err != nil {
		return Job{}, err
	}
	return jobs[0], nil
}

// writeJournal commits events, in order, to a fresh journal at path.
func writeJournal(t testing.TB, path string, events []Event) {
	t.Helper()
	jnl, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	jnl.nosync = true
	for i := range events {
		if err := jnl.Append(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()
}

// TestReplayRefusesRepeatedJobID: a submit, sweep or snapshot record
// naming a job the journal already created makes the journal corrupt.
// Replaying it would list the job twice and make it claimable twice.
func TestReplayRefusesRepeatedJobID(t *testing.T) {
	spec := testSpec()
	for _, tc := range []struct {
		name   string
		events []Event
	}{
		{"submit", []Event{
			{Op: opSubmit, Job: "j000001", Spec: &spec},
			{Op: opSubmit, Job: "j000001", Spec: &spec},
		}},
		{"sweep", []Event{
			{Op: opSubmit, Job: "j000001", Spec: &spec},
			{Op: opSweep, Specs: []JobSpec{spec, spec}, IDs: []string{"j000002", "j000001"}},
		}},
		{"within-sweep", []Event{
			{Op: opSweep, Specs: []JobSpec{spec, spec}, IDs: []string{"j000001", "j000001"}},
		}},
		{"snapshot", []Event{
			{Op: opSnapshot, Job: "j000001", Spec: &spec, State: StateDone, Result: []byte(`{"r":1}`)},
			{Op: opSubmit, Job: "j000001", Spec: &spec},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal")
			writeJournal(t, path, tc.events)
			if q, err := OpenQueue(path, nil); !errors.Is(err, ErrJournalCorrupt) {
				if err == nil {
					t.Errorf("open listed %d jobs", len(q.Jobs()))
					q.Close()
				}
				t.Fatalf("open with a repeated job ID = %v, want ErrJournalCorrupt", err)
			}
		})
	}
}

// TestReplayErrorsAreJournalCorrupt: every record replay refuses
// surfaces from OpenQueue as ErrJournalCorrupt, keeping its cause.
func TestReplayErrorsAreJournalCorrupt(t *testing.T) {
	spec := testSpec()
	for _, tc := range []struct {
		name   string
		events []Event
		cause  error
	}{
		{"cancel-twice", []Event{
			{Op: opSubmit, Job: "j000001", Spec: &spec},
			{Op: opCancel, Job: "j000001"},
			{Op: opCancel, Job: "j000001"},
		}, ErrDuplicateTerminal},
		{"unknown-op", []Event{
			{Op: opSubmit, Job: "j000001", Spec: &spec},
			{Op: "teleport", Job: "j000001"},
		}, nil},
		{"unsubmitted", []Event{{Op: opClaim, Job: "j000009", Worker: "w1", Attempt: 1}}, nil},
		{"no-spec", []Event{{Op: opSubmit, Job: "j000001"}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal")
			writeJournal(t, path, tc.events)
			_, err := OpenQueue(path, nil)
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("open = %v, want ErrJournalCorrupt", err)
			}
			if tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Fatalf("open = %v, want it to keep %v", err, tc.cause)
			}
		})
	}
}

// TestReplayRefusesBogusSnapshotState: a snapshot record whose state
// is none of the five job states makes the journal corrupt instead of
// opening a job nothing can claim or cancel.
func TestReplayRefusesBogusSnapshotState(t *testing.T) {
	spec := testSpec()
	path := filepath.Join(t.TempDir(), "journal")
	writeJournal(t, path, []Event{{Op: opSnapshot, Job: "j000001", Spec: &spec, State: "bogus"}})
	if q, err := OpenQueue(path, nil); !errors.Is(err, ErrJournalCorrupt) {
		if err == nil {
			t.Errorf("open counted %v", q.Counts())
			q.Close()
		}
		t.Fatalf("open = %v, want ErrJournalCorrupt", err)
	}
}

// TestReplayRefusesFencingRegression: a claim that does not advance the
// job's attempts, or that takes a job from a remote lease holder, makes
// the journal corrupt: replaying it would hand the lease back to an
// older token or to a second worker.
func TestReplayRefusesFencingRegression(t *testing.T) {
	spec := testSpec()
	submit := Event{Op: opSubmit, Job: "j000001", Spec: &spec}
	for _, tc := range []struct {
		name   string
		events []Event
	}{
		{"attempt-regresses", []Event{submit,
			{Op: opClaim, Job: "j000001", Attempt: 7, Worker: "w1"},
			{Op: opExpire, Job: "j000001", Attempt: 7, Worker: "w1"},
			{Op: opClaim, Job: "j000001", Attempt: 2, Worker: "w2"},
		}},
		{"remote-lease-held", []Event{submit,
			{Op: opClaim, Job: "j000001", Attempt: 1, Worker: "w1"},
			{Op: opClaim, Job: "j000001", Attempt: 2, Worker: "w2"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal")
			writeJournal(t, path, tc.events)
			if q, err := OpenQueue(path, nil); !errors.Is(err, ErrJournalCorrupt) {
				if err == nil {
					jb, _ := q.Get("j000001")
					t.Errorf("open left the job %s under %s at attempt %d", jb.State, jb.Worker, jb.Attempts)
					q.Close()
				}
				t.Fatalf("open = %v, want ErrJournalCorrupt", err)
			}
		})
	}
}

// TestReplayAcceptsClaimAfterLocalRun: a restart re-pends a job left
// running in-process without journaling a requeue, so its next claim
// follows the in-process claim (or legacy start record) directly; that
// journal still opens, with the job under the later claim.
func TestReplayAcceptsClaimAfterLocalRun(t *testing.T) {
	spec := testSpec()
	submit := Event{Op: opSubmit, Job: "j000001", Spec: &spec}
	for _, first := range []Event{
		{Op: opClaim, Job: "j000001", Attempt: 1, Worker: careapi.LocalWorker},
		{Op: opStart, Job: "j000001", Attempt: 1},
	} {
		t.Run(first.Op, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal")
			writeJournal(t, path, []Event{submit, first,
				{Op: opClaim, Job: "j000001", Attempt: 2, Worker: "w2", TTLMS: 5000}})
			q := openTestQueue(t, path)
			jb, err := q.Get("j000001")
			if err != nil || jb.State != StateRunning || jb.Worker != "w2" || jb.Attempts != 2 {
				t.Fatalf("job = %+v (%v), want running under w2 at attempt 2", jb, err)
			}
		})
	}
}

func TestQueueSubmitClaimComplete(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	jb, err := submit(q, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if jb.ID != "j000001" || jb.State != StatePending {
		t.Fatalf("submitted job = %+v", jb)
	}
	claimed, ok, err := q.ClaimFor("w1", 60_000, "", nil)
	if err != nil || !ok || claimed.ID != jb.ID || claimed.State != StateRunning || claimed.Attempts != 1 {
		t.Fatalf("claimed = %+v ok=%v err=%v", claimed, ok, err)
	}
	if err := q.CompleteRemote(jb.ID, "w1", 1, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	got, err := q.Get(jb.ID)
	if err != nil || got.State != StateDone || string(got.Result) != `{"ok":true}` {
		t.Fatalf("completed job = %+v err=%v", got, err)
	}
	// Exactly-once: the winning lease's repeat is a no-op, and nobody
	// else can complete the job again.
	seq := q.Seq()
	if err := q.CompleteRemote(jb.ID, "w1", 1, []byte(`{"ok":false}`)); err != nil || q.Seq() != seq {
		t.Fatalf("repeated complete: err=%v seq %d -> %d", err, seq, q.Seq())
	}
	if err := q.CompleteRemote(jb.ID, "w2", 2, []byte(`{}`)); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("second complete returned %v, want ErrStaleLease", err)
	}
}

func TestQueueRejectsInvalidSpec(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	bad := testSpec()
	bad.Policy = "no-such-policy"
	if _, err := submit(q, bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if n := len(q.Jobs()); n != 0 {
		t.Fatalf("rejected submit left %d jobs", n)
	}
}

func TestQueueReplayRestoresState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	q := openTestQueue(t, path)
	a, _ := submit(q, testSpec())
	b, _ := submit(q, testSpec())
	c, _ := submit(q, testSpec())
	ca, _, _ := q.ClaimFor(careapi.LocalWorker, 60_000, "", nil) // a starts
	if ca.ID != a.ID {
		t.Fatalf("claimed %s, want %s", ca.ID, a.ID)
	}
	if err := q.CompleteRemote(a.ID, careapi.LocalWorker, 1, []byte(`{"r":1}`)); err != nil {
		t.Fatal(err)
	}
	// b starts in-process and is left running (simulated crash).
	q.ClaimFor(careapi.LocalWorker, 60_000, "", nil)
	if err := q.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	q.Close()

	q2 := openTestQueue(t, path)
	ga, _ := q2.Get(a.ID)
	gb, _ := q2.Get(b.ID)
	gc, _ := q2.Get(c.ID)
	if ga.State != StateDone || string(ga.Result) != `{"r":1}` {
		t.Fatalf("job a after replay = %+v", ga)
	}
	// The in-process lease died with the process: no TTL to wait out.
	if gb.State != StatePending || gb.Worker != "" || q2.ActiveLeases() != 0 {
		t.Fatalf("crashed-running job b replayed as %+v, want pending (implicit requeue)", gb)
	}
	if gc.State != StateCancelled {
		t.Fatalf("job c after replay = %+v", gc)
	}
	// The interrupted job is claimable again, with the attempt counter
	// advancing past the crashed execution.
	rb, ok, _ := q2.ClaimFor("w1", 60_000, "", nil)
	if !ok || rb.ID != b.ID || rb.Attempts != 2 {
		t.Fatalf("reclaim after replay = %+v ok=%v", rb, ok)
	}
	// ID assignment continues past replayed jobs.
	d, err := submit(q2, testSpec())
	if err != nil || d.ID != "j000004" {
		t.Fatalf("post-replay submit = %+v err=%v", d, err)
	}
}

// TestLegacyStartRecordsReplay replays a journal written before every
// execution ran under a lease: the in-process pool journaled a start
// record naming no worker, and its complete, requeue and fail records
// quoted no lease.
func TestLegacyStartRecordsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	jnl, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	events := []Event{
		{Op: opSweep, Specs: []JobSpec{spec, spec, spec}, IDs: []string{"j000001", "j000002", "j000003"}},
		{Op: opStart, Job: "j000001", Attempt: 1},
		{Op: opComplete, Job: "j000001", Result: []byte(`{"r":1}`)},
		{Op: opStart, Job: "j000002", Attempt: 1},
		{Op: opRequeue, Job: "j000002", Error: "drained: server shutting down"},
		{Op: opStart, Job: "j000002", Attempt: 2}, // running when the process died
		{Op: opStart, Job: "j000003", Attempt: 1},
		{Op: opFail, Job: "j000003", Error: "permanent"},
	}
	for i := range events {
		if err := jnl.Append(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()

	want := map[string]Job{
		"j000001": {State: StateDone, Attempts: 1, Result: []byte(`{"r":1}`)},
		"j000002": {State: StatePending, Attempts: 2, Error: "requeued: server restarted mid-run"},
		"j000003": {State: StateFailed, Attempts: 1, Error: "permanent"},
	}
	check := func(q *Queue, stage string) {
		t.Helper()
		for id, w := range want {
			if got, err := q.Get(id); err != nil || !sameJob(got, w) {
				t.Fatalf("%s: %s = %+v err=%v, want %+v", stage, id, got, err, w)
			}
		}
	}
	q := openTestQueue(t, path)
	check(q, "replay")
	q.Close()

	q2 := openTestQueue(t, path)
	check(q2, "reopen")
	// The interrupted job claims again past its legacy attempts.
	jb, ok, err := q2.ClaimFor("w1", 60_000, "", nil)
	if err != nil || !ok || jb.ID != "j000002" || jb.Attempts != 3 {
		t.Fatalf("claim after legacy replay = %+v ok=%v err=%v", jb, ok, err)
	}
}

func TestQueueRequeueMakesJobClaimable(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	jb, _ := submit(q, testSpec())
	q.ClaimFor("w1", 60_000, "", nil)
	if err := q.FailRemote(jb.ID, "w1", 1, "requeue", "drained"); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(jb.ID)
	if got.State != StatePending || got.Error != "drained" {
		t.Fatalf("requeued job = %+v", got)
	}
	re, ok, _ := q.ClaimFor("w1", 60_000, "", nil)
	if !ok || re.ID != jb.ID || re.Attempts != 2 {
		t.Fatalf("re-claim = %+v ok=%v", re, ok)
	}
}

func TestQueueCancelSkipsClaim(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	a, _ := submit(q, testSpec())
	b, _ := submit(q, testSpec())
	if err := q.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := q.ClaimFor("w1", 60_000, "", nil)
	if !ok || got.ID != b.ID {
		t.Fatalf("claim after cancel = %+v ok=%v, want %s", got, ok, b.ID)
	}
	if q.Depth() != 0 {
		t.Fatalf("depth = %d, want 0", q.Depth())
	}
}
