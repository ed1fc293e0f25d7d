package server

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"care/internal/faultinject"
)

func TestClaimRemoteGrantsLease(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	jb, _ := q.Submit(testSpec())
	got, ok, err := q.ClaimRemote("w1", 5000, "")
	if err != nil || !ok {
		t.Fatalf("ClaimRemote = %+v ok=%v err=%v", got, ok, err)
	}
	if got.ID != jb.ID || got.State != StateRunning || got.Worker != "w1" ||
		got.Attempts != 1 || got.LeaseTTLMS != 5000 {
		t.Fatalf("leased job = %+v", got)
	}
	if got.LeaseMSLeft <= 0 || got.LeaseMSLeft > 5000 {
		t.Fatalf("LeaseMSLeft = %d, want (0, 5000]", got.LeaseMSLeft)
	}
	// Nothing left to claim.
	if _, ok, _ := q.ClaimRemote("w2", 5000, ""); ok {
		t.Fatal("second claim got a job from an empty queue")
	}
}

func TestClaimRemoteIdempotencyKeyReturnsSameLease(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	q.Submit(testSpec())
	q.Submit(testSpec())
	first, ok, err := q.ClaimRemote("w1", 5000, "key-1")
	if err != nil || !ok {
		t.Fatal(err)
	}
	seq := q.Seq()
	// The response was "lost"; the retried claim quotes the same key
	// and must get the same lease back without a new journal event.
	again, ok, err := q.ClaimRemote("w1", 5000, "key-1")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if again.ID != first.ID || again.Attempts != first.Attempts {
		t.Fatalf("idempotent re-claim = %s token %d, want %s token %d",
			again.ID, again.Attempts, first.ID, first.Attempts)
	}
	if q.Seq() != seq {
		t.Fatalf("idempotent re-claim appended journal events (%d -> %d)", seq, q.Seq())
	}
	// A different key claims the next job, not the same one.
	other, ok, err := q.ClaimRemote("w1", 5000, "key-2")
	if err != nil || !ok || other.ID == first.ID {
		t.Fatalf("fresh claim = %+v ok=%v err=%v", other, ok, err)
	}
}

func TestClaimRemoteIdempotencySurvivesReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	q := openTestQueue(t, path)
	q.Submit(testSpec())
	first, _, _ := q.ClaimRemote("w1", 5000, "key-1")
	q.Close()

	q2 := openTestQueue(t, path)
	again, ok, err := q2.ClaimRemote("w1", 5000, "key-1")
	if err != nil || !ok || again.ID != first.ID || again.Attempts != first.Attempts {
		t.Fatalf("post-replay idempotent claim = %+v ok=%v err=%v (want %s token %d)",
			again, ok, err, first.ID, first.Attempts)
	}
}

func TestCompleteRemoteIsIdempotentForWinningLease(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	jb, _ := q.Submit(testSpec())
	got, _, _ := q.ClaimRemote("w1", 5000, "")
	if err := q.CompleteRemote(jb.ID, "w1", got.Attempts, []byte(`{"r":1}`)); err != nil {
		t.Fatal(err)
	}
	seq := q.Seq()
	// The complete response was lost; the retry must succeed without a
	// second journal event.
	if err := q.CompleteRemote(jb.ID, "w1", got.Attempts, []byte(`{"r":1}`)); err != nil {
		t.Fatalf("retried complete = %v, want nil", err)
	}
	if q.Seq() != seq {
		t.Fatal("retried complete appended a second event")
	}
	// A different lease's complete is fenced, not treated as duplicate.
	if err := q.CompleteRemote(jb.ID, "w2", got.Attempts, []byte(`{"r":2}`)); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("foreign complete = %v, want ErrStaleLease", err)
	}
}

func TestStaleCompleteAfterExpiryAndReclaimIsFenced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	q := openTestQueue(t, path)
	jb, _ := q.Submit(testSpec())
	w1, _, _ := q.ClaimRemote("w1", 50, "") // token 1, 50ms TTL
	// w1 goes silent; the lease manager expires it.
	expired := q.ExpireLeases(time.Now().Add(time.Second))
	if len(expired) != 1 || expired[0] != jb.ID {
		t.Fatalf("expired = %v, want [%s]", expired, jb.ID)
	}
	if q.Expirations() != 1 {
		t.Fatalf("Expirations = %d, want 1", q.Expirations())
	}
	// w2 re-claims at a higher token and completes.
	w2, ok, _ := q.ClaimRemote("w2", 5000, "")
	if !ok || w2.Attempts != 2 {
		t.Fatalf("re-claim = %+v ok=%v, want token 2", w2, ok)
	}
	if err := q.CompleteRemote(jb.ID, "w2", 2, []byte(`{"winner":"w2"}`)); err != nil {
		t.Fatal(err)
	}
	// w1's delayed complete arrives — provably rejected, not applied.
	err := q.CompleteRemote(jb.ID, "w1", w1.Attempts, []byte(`{"winner":"w1"}`))
	if !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale complete = %v, want ErrStaleLease", err)
	}
	got, _ := q.Get(jb.ID)
	if string(got.Result) != `{"winner":"w2"}` || got.Worker != "w2" || got.Attempts != 2 {
		t.Fatalf("job after stale complete = %+v (result %s)", got, got.Result)
	}
	// The journal agrees: exactly one complete event, attributed to
	// w2's lease, and one expire event that ended w1's custody before
	// the re-claim — the full fencing narrative on durable record.
	q.Close()
	jnl, events, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	var completes, expires int
	for _, ev := range events {
		switch ev.Op {
		case opComplete:
			completes++
			if ev.Worker != "w2" || ev.Attempt != 2 {
				t.Fatalf("complete event attributed to %q token %d, want w2/2", ev.Worker, ev.Attempt)
			}
		case opExpire:
			expires++
			if ev.Worker != "w1" || ev.Attempt != 1 {
				t.Fatalf("expire event for %q token %d, want w1/1", ev.Worker, ev.Attempt)
			}
		}
	}
	if completes != 1 || expires != 1 {
		t.Fatalf("journal has %d complete and %d expire events, want 1 and 1", completes, expires)
	}
}

func TestExpiryVersusCompleteRaceIsDeterministic(t *testing.T) {
	// Both orders of the same race, decided by whichever commit takes
	// the queue lock first.
	t.Run("complete-wins", func(t *testing.T) {
		q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
		jb, _ := q.Submit(testSpec())
		q.ClaimRemote("w1", 50, "")
		// The deadline has passed, but the sweep has not run yet: the
		// complete arrives first and wins.
		time.Sleep(60 * time.Millisecond)
		if err := q.CompleteRemote(jb.ID, "w1", 1, []byte(`{"r":1}`)); err != nil {
			t.Fatalf("complete before sweep = %v, want success", err)
		}
		if got := q.ExpireLeases(time.Now()); len(got) != 0 {
			t.Fatalf("sweep after complete expired %v, want nothing", got)
		}
		got, _ := q.Get(jb.ID)
		if got.State != StateDone {
			t.Fatalf("state = %s, want done", got.State)
		}
	})
	t.Run("expiry-wins", func(t *testing.T) {
		q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
		jb, _ := q.Submit(testSpec())
		q.ClaimRemote("w1", 50, "")
		time.Sleep(60 * time.Millisecond)
		if got := q.ExpireLeases(time.Now()); len(got) != 1 {
			t.Fatalf("sweep expired %v, want one", got)
		}
		if err := q.CompleteRemote(jb.ID, "w1", 1, []byte(`{"r":1}`)); !errors.Is(err, ErrStaleLease) {
			t.Fatalf("complete after expiry = %v, want ErrStaleLease", err)
		}
		got, _ := q.Get(jb.ID)
		if got.State != StatePending {
			t.Fatalf("state = %s, want pending (requeued)", got.State)
		}
	})
}

func TestRenewExtendsLeaseAndIsFenced(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	jb, _ := q.Submit(testSpec())
	q.ClaimRemote("w1", 1000, "")
	re, err := q.Renew(jb.ID, "w1", 1, nil)
	if err != nil || re.LeaseMSLeft <= 0 {
		t.Fatalf("renew = %+v err=%v", re, err)
	}
	if _, err := q.Renew(jb.ID, "w1", 7, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("renew with wrong token = %v, want ErrStaleLease", err)
	}
	if _, err := q.Renew(jb.ID, "w2", 1, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("renew by wrong worker = %v, want ErrStaleLease", err)
	}
	if _, err := q.Renew("j999999", "w1", 1, nil); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("renew of unknown job = %v, want ErrUnknownJob", err)
	}
}

func TestFailRemoteKinds(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	a, _ := q.Submit(testSpec())
	b, _ := q.Submit(testSpec())
	c, _ := q.Submit(testSpec())

	q.ClaimRemote("w1", 5000, "") // a, token 1
	if err := q.FailRemote(a.ID, "w1", 1, "requeue", "drained"); err != nil {
		t.Fatal(err)
	}
	ga, _ := q.Get(a.ID)
	if ga.State != StatePending || ga.Error != "drained" {
		t.Fatalf("requeued job = %+v", ga)
	}

	q.ClaimRemote("w1", 5000, "") // b, token 1
	if err := q.FailRemote(b.ID, "w1", 1, "fail", "boom"); err != nil {
		t.Fatal(err)
	}
	gb, _ := q.Get(b.ID)
	if gb.State != StateFailed || gb.Error != "boom" {
		t.Fatalf("failed job = %+v", gb)
	}

	q.ClaimRemote("w1", 5000, "") // c
	// A cancel ack with no cancel pending is a bad transition.
	if err := q.FailRemote(c.ID, "w1", 1, "cancel", ""); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("unsolicited cancel ack = %v, want ErrBadTransition", err)
	}
	if !q.RequestCancelLeased(c.ID) {
		t.Fatal("RequestCancelLeased returned false for a leased job")
	}
	if err := q.FailRemote(c.ID, "w1", 1, "cancel", ""); err != nil {
		t.Fatal(err)
	}
	gc, _ := q.Get(c.ID)
	if gc.State != StateCancelled {
		t.Fatalf("cancelled job = %+v", gc)
	}

	if err := q.FailRemote(a.ID, "w1", 1, "frobnicate", ""); err == nil {
		t.Fatal("unknown fail kind accepted")
	}
}

func TestCancelEdgeCases(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	// Cancel of a job the journal has never seen.
	if err := q.Cancel("j424242"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown = %v, want ErrUnknownJob", err)
	}
	if q.RequestCancelLeased("j424242") {
		t.Fatal("RequestCancelLeased of unknown job returned true")
	}
	// Cancel of a leased job must go through the lease protocol, not
	// the queued-job path.
	jb, _ := q.Submit(testSpec())
	q.ClaimRemote("w1", 50, "")
	if err := q.Cancel(jb.ID); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("queued-cancel of leased job = %v, want ErrBadTransition", err)
	}
	if !q.RequestCancelLeased(jb.ID) {
		t.Fatal("RequestCancelLeased returned false for leased job")
	}
	// The holder never acks; expiry converts into the cancel instead of
	// a requeue.
	expired := q.ExpireLeases(time.Now().Add(time.Second))
	if len(expired) != 1 {
		t.Fatalf("expired = %v", expired)
	}
	got, _ := q.Get(jb.ID)
	if got.State != StateCancelled {
		t.Fatalf("state after expiry-with-cancel = %s, want cancelled", got.State)
	}
	// And the cancelled job is not claimable.
	if _, ok, _ := q.ClaimRemote("w2", 5000, ""); ok {
		t.Fatal("cancelled job was claimable")
	}
}

func TestDuplicateTerminalReplayRefusesToOpen(t *testing.T) {
	// A journal with two terminal events for one job violates exactly-
	// once; opening it must fail loudly rather than silently pick one.
	path := filepath.Join(t.TempDir(), "journal")
	spec := testSpec()
	writeJournal(t, path, []Event{
		{Op: opSubmit, Job: "j000001", Spec: &spec},
		{Op: opStart, Job: "j000001", Attempt: 1},
		{Op: opComplete, Job: "j000001", Result: []byte(`{"r":1}`)},
		{Op: opComplete, Job: "j000001", Result: []byte(`{"r":2}`)},
	})
	if _, err := OpenQueue(path, nil); !errors.Is(err, ErrDuplicateTerminal) {
		t.Fatalf("open with duplicate terminal = %v, want ErrDuplicateTerminal", err)
	}
}

func TestRemoteLeaseSurvivesRestartThenExpires(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	q := openTestQueue(t, path)
	jb, _ := q.Submit(testSpec())
	q.ClaimRemote("w1", 200, "")
	q.Close()

	// Restart: the worker may have survived, so the job stays running
	// under its lease, re-armed at a full TTL.
	q2 := openTestQueue(t, path)
	got, _ := q2.Get(jb.ID)
	if !got.Leased() || got.Worker != "w1" || got.Attempts != 1 {
		t.Fatalf("replayed lease = %+v", got)
	}
	if n := q2.ActiveLeases(); n != 1 {
		t.Fatalf("ActiveLeases = %d, want 1", n)
	}
	// Not expirable yet (deadline re-armed at open time)...
	if exp := q2.ExpireLeases(time.Now()); len(exp) != 0 {
		t.Fatalf("immediate sweep expired %v", exp)
	}
	// ...but a worker that never heartbeats again loses it.
	exp := q2.ExpireLeases(time.Now().Add(time.Second))
	if len(exp) != 1 || exp[0] != jb.ID {
		t.Fatalf("overdue sweep expired %v, want [%s]", exp, jb.ID)
	}
	re, ok, _ := q2.ClaimRemote("w2", 5000, "")
	if !ok || re.ID != jb.ID || re.Attempts != 2 {
		t.Fatalf("re-claim after expiry = %+v ok=%v", re, ok)
	}
}

func TestSubmitSweepIsOneAtomicEvent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	q := openTestQueue(t, path)
	specs := []JobSpec{testSpec(), testSpec(), testSpec()}
	jobs, err := q.SubmitSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 || jobs[0].ID != "j000001" || jobs[2].ID != "j000003" {
		t.Fatalf("sweep jobs = %+v", jobs)
	}
	if q.Seq() != 1 {
		t.Fatalf("sweep of 3 used %d journal events, want 1", q.Seq())
	}
	q.Close()
	q2 := openTestQueue(t, path)
	if n := len(q2.Jobs()); n != 3 {
		t.Fatalf("replayed sweep has %d jobs, want 3", n)
	}
	if d, err := q2.Submit(testSpec()); err != nil || d.ID != "j000004" {
		t.Fatalf("post-sweep submit = %+v err=%v", d, err)
	}
}

func TestSubmitSweepRefusedAppendLeavesNothing(t *testing.T) {
	// The append-err fault refuses the sweep's single commit; the queue
	// must acknowledge nothing, journal nothing, and stay fully usable.
	path := filepath.Join(t.TempDir(), "journal")
	inj := faultinject.New(faultinject.Config{ServerAppendErrNth: 1})
	q, err := OpenQueue(path, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.jnl.nosync = true
	specs := []JobSpec{testSpec(), testSpec(), testSpec()}
	if _, err := q.SubmitSweep(specs); !errors.Is(err, faultinject.ErrInjectedAppend) {
		t.Fatalf("sweep with refused append = %v, want ErrInjectedAppend", err)
	}
	if n := len(q.Jobs()); n != 0 {
		t.Fatalf("refused sweep left %d jobs in memory", n)
	}
	// The retry gets the same IDs — nothing was consumed.
	jobs, err := q.SubmitSweep(specs)
	if err != nil || len(jobs) != 3 || jobs[0].ID != "j000001" {
		t.Fatalf("retried sweep = %+v err=%v", jobs, err)
	}
	// And a reopen sees exactly the retried sweep.
	q.Close()
	q2 := openTestQueue(t, path)
	if n := len(q2.Jobs()); n != 3 {
		t.Fatalf("replay after refused+retried sweep has %d jobs, want 3", n)
	}
}
