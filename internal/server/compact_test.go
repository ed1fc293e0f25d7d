package server

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"care/careapi"
)

// buildHistory produces a queue with a few journal-heavy jobs: one
// done after retries, one failed, one cancelled, one pending with
// prior attempts, one live remote lease.
func buildHistory(t *testing.T, path string) map[string]Job {
	t.Helper()
	q := openTestQueue(t, path)
	a, _ := q.Submit(testSpec())
	b, _ := q.Submit(testSpec())
	c, _ := q.Submit(testSpec())
	d, _ := q.Submit(testSpec())
	e, _ := q.Submit(testSpec())

	// In-process history: a is claimed and requeued, then b (next in
	// line: the requeue sent a to the back) is left running when the
	// process dies.
	q.ClaimFor(careapi.LocalWorker, 60_000, "", nil)
	q.FailRemote(a.ID, careapi.LocalWorker, 1, "requeue", "injected crash")
	q.ClaimFor(careapi.LocalWorker, 60_000, "", nil)
	q.Close()

	q2 := openTestQueue(t, path)
	// Reopen replays: a pending (requeued), b pending (implicit requeue
	// of the in-process lease that died with the process), c/d/e
	// pending.
	complete := func(id string, worker string, result string) {
		t.Helper()
		for {
			jb, ok, err := q2.ClaimRemote(worker, 60_000, "")
			if err != nil || !ok {
				t.Fatalf("claim for %s: ok=%v err=%v", id, ok, err)
			}
			if jb.ID == id {
				if err := q2.CompleteRemote(id, worker, jb.Attempts, []byte(result)); err != nil {
					t.Fatal(err)
				}
				return
			}
			// Not the one we want: requeue and keep cycling.
			if err := q2.FailRemote(jb.ID, worker, jb.Attempts, "requeue", "cycling"); err != nil {
				t.Fatal(err)
			}
		}
	}
	complete(a.ID, "w1", `{"r":"a"}`)
	fail := func(id string) {
		t.Helper()
		for {
			jb, ok, err := q2.ClaimRemote("w1", 60_000, "")
			if err != nil || !ok {
				t.Fatalf("claim for %s: ok=%v err=%v", id, ok, err)
			}
			if jb.ID == id {
				if err := q2.FailRemote(id, "w1", jb.Attempts, "fail", "permanent"); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err := q2.FailRemote(jb.ID, "w1", jb.Attempts, "requeue", "cycling"); err != nil {
				t.Fatal(err)
			}
		}
	}
	fail(b.ID)
	if err := q2.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	// d: leave pending but with accumulated attempts (claim + requeue).
	for {
		jb, ok, err := q2.ClaimRemote("w9", 60_000, "")
		if err != nil || !ok {
			t.Fatalf("claim for %s: ok=%v err=%v", d.ID, ok, err)
		}
		if err := q2.FailRemote(jb.ID, "w9", jb.Attempts, "requeue", "bounced"); err != nil {
			t.Fatal(err)
		}
		if jb.ID == d.ID {
			break
		}
	}
	// e: live remote lease with an idempotency key.
	for {
		jb, ok, err := q2.ClaimRemote("w2", 60_000, "key-e")
		if err != nil || !ok {
			t.Fatalf("claim for %s: ok=%v err=%v", e.ID, ok, err)
		}
		if jb.ID == e.ID {
			break
		}
		if err := q2.FailRemote(jb.ID, "w2", jb.Attempts, "requeue", "cycling"); err != nil {
			t.Fatal(err)
		}
	}

	want := make(map[string]Job)
	for _, jb := range q2.Jobs() {
		want[jb.ID] = jb
	}
	q2.Close()
	return want
}

func sameJob(a, b Job) bool {
	return a.State == b.State && a.Attempts == b.Attempts && a.Worker == b.Worker &&
		string(a.Result) == string(b.Result) && a.Error == b.Error
}

func TestCompactPreservesStateAndFencingTokens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	want := buildHistory(t, path)

	q := openTestQueue(t, path)
	before := q.Seq()
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	if q.Seq() >= before {
		t.Fatalf("compaction did not shrink the journal: seq %d -> %d", before, q.Seq())
	}
	if q.Seq() != 5 {
		t.Fatalf("compacted journal has %d records, want 5 (one per job)", q.Seq())
	}
	// The compacted queue still answers identically.
	for id, w := range want {
		got, err := q.Get(id)
		if err != nil || !sameJob(got, w) {
			t.Fatalf("after compact, %s = %+v err=%v, want %+v", id, got, err, w)
		}
	}
	// Appends continue cleanly on the compacted journal.
	extra, err := q.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	q.Close()

	// A reopen replays the snapshot + the new submit.
	q2 := openTestQueue(t, path)
	for id, w := range want {
		got, err := q2.Get(id)
		if err != nil || !sameJob(got, w) {
			t.Fatalf("after reopen, %s = %+v err=%v, want %+v", id, got, err, w)
		}
	}
	if _, err := q2.Get(extra.ID); err != nil {
		t.Fatal(err)
	}
	// No compaction leftovers on disk.
	for _, side := range []string{path + compactSuffix, path + rotatedSuffix} {
		if _, err := os.Stat(side); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("leftover %s after clean compaction", side)
		}
	}
	// Fencing survives: the pending job with prior attempts re-claims
	// at a HIGHER token than any pre-compaction lease ever held.
	var pendingWithAttempts Job
	for _, w := range want {
		if w.State == StatePending && w.Attempts > 0 && w.Attempts > pendingWithAttempts.Attempts {
			pendingWithAttempts = w
		}
	}
	if pendingWithAttempts.ID == "" {
		t.Fatal("history built no pending job with attempts")
	}
	for {
		jb, ok, err := q2.ClaimRemote("w3", 60_000, "")
		if err != nil || !ok {
			t.Fatalf("claim: ok=%v err=%v", ok, err)
		}
		if jb.ID == pendingWithAttempts.ID {
			if jb.Attempts != pendingWithAttempts.Attempts+1 {
				t.Fatalf("token after compaction = %d, want %d (tokens must never regress)",
					jb.Attempts, pendingWithAttempts.Attempts+1)
			}
			break
		}
		if err := q2.FailRemote(jb.ID, "w3", jb.Attempts, "requeue", "cycling"); err != nil {
			t.Fatal(err)
		}
	}
	// The replayed snapshot also preserved the leased job's
	// idempotency key.
	leased, ok, err := q2.ClaimRemote("w2", 60_000, "key-e")
	if err != nil || !ok || leased.Worker != "w2" {
		t.Fatalf("idempotent claim after compaction = %+v ok=%v err=%v", leased, ok, err)
	}
}

func TestCompactIfWorthwhileThresholds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	q := openTestQueue(t, path)
	for i := 0; i < 4; i++ {
		q.Submit(testSpec())
	}
	q.Close()

	q2 := openTestQueue(t, path) // 4 replayed events, 4 jobs
	seq := q2.Seq()
	// Below the event floor: no rewrite.
	if err := q2.CompactIfWorthwhile(100); err != nil || q2.Seq() != seq {
		t.Fatalf("under-threshold compaction ran (seq %d -> %d, err %v)", seq, q2.Seq(), err)
	}
	// Disabled: no rewrite regardless.
	if err := q2.CompactIfWorthwhile(-1); err != nil || q2.Seq() != seq {
		t.Fatalf("disabled compaction ran (err %v)", err)
	}
	// History barely above the job count is not worth rewriting either
	// (4 events for 4 jobs: the snapshot would be the same size).
	if err := q2.CompactIfWorthwhile(2); err != nil || q2.Seq() != seq {
		t.Fatalf("unprofitable compaction ran (err %v)", err)
	}
	q2.Close()
}

// corruptMidFile flips bytes in the middle of the journal so replay
// hits a damaged record with valid data after it.
func corruptMidFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("journal too short to corrupt mid-file: %d lines", len(lines))
	}
	lines[1] = strings.Replace(lines[1], journalMagic, "XXXXXXXXX", 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionCrashWindows(t *testing.T) {
	// Each sub-test reconstructs the on-disk state a crash at one point
	// of the compaction protocol leaves behind, then proves the open
	// path recovers the right journal: live -> compact -> rotated ->
	// fresh.
	build := func(t *testing.T) (string, map[string]Job) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal")
		want := buildHistory(t, path)
		return path, want
	}
	verify := func(t *testing.T, path string, want map[string]Job) {
		t.Helper()
		q, err := OpenQueue(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		for id, w := range want {
			got, err := q.Get(id)
			if err != nil || !sameJob(got, w) {
				t.Fatalf("%s = %+v err=%v, want %+v", id, got, err, w)
			}
		}
		for _, side := range []string{path + compactSuffix, path + rotatedSuffix} {
			if _, err := os.Stat(side); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("recovery left %s behind", side)
			}
		}
	}

	t.Run("crash-mid-snapshot-write", func(t *testing.T) {
		// Step 1 died: live journal intact, torn .compact beside it.
		// The live journal must win and the leftover must be cleaned.
		path, want := build(t)
		if err := os.WriteFile(path+compactSuffix, []byte("CAREJRNL1 1 00000000 {\"op\":\"snapsho"), 0o644); err != nil {
			t.Fatal(err)
		}
		verify(t, path, want)
	})

	t.Run("crash-between-renames", func(t *testing.T) {
		// Steps 2-3 split: live renamed to .rotated, complete .compact
		// not yet renamed in. The snapshot must be adopted.
		path, want := build(t)
		q, _ := OpenQueue(path, nil)
		if err := q.Compact(); err != nil {
			t.Fatal(err)
		}
		q.Close()
		// Reconstruct the window: journal -> rotated, compact complete.
		if err := os.Rename(path, path+compactSuffix); err != nil {
			t.Fatal(err)
		}
		// (rotated file: any prior history; rebuild one from scratch.)
		if err := os.WriteFile(path+rotatedSuffix, []byte("CAREJRNL1 1 00000000 torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		verify(t, path, want)
	})

	t.Run("crash-before-rotated-cleanup", func(t *testing.T) {
		// Step 4 died: snapshot installed as the live journal, stale
		// .rotated still present. Live wins; leftover removed.
		path, want := build(t)
		q, _ := OpenQueue(path, nil)
		if err := q.Compact(); err != nil {
			t.Fatal(err)
		}
		q.Close()
		if err := os.WriteFile(path+rotatedSuffix, []byte("CAREJRNL1 1 00000000 whatever\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		verify(t, path, want)
	})

	t.Run("live-missing-compact-torn-rotated-intact", func(t *testing.T) {
		// The worst crash: live renamed away AND the compact copy turns
		// out torn (disk died mid-fsync lie). Fall back to the rotated
		// full history.
		path, want := build(t)
		if err := os.Rename(path, path+rotatedSuffix); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+compactSuffix, []byte("CAREJRNL1 1 00000000 {\"op\":\"snapsho"), 0o644); err != nil {
			t.Fatal(err)
		}
		verify(t, path, want)
	})

	t.Run("live-corrupt-rotated-intact", func(t *testing.T) {
		// Mid-file damage in the live journal with a full-history
		// fallback available: recover from it instead of refusing.
		path, want := build(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+rotatedSuffix, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corruptMidFile(t, path)
		verify(t, path, want)
	})

	t.Run("live-corrupt-no-fallback-refuses", func(t *testing.T) {
		// Mid-file damage with nothing to fall back to must still
		// refuse to start: silently skipping records could resurrect
		// completed jobs.
		path, _ := build(t)
		corruptMidFile(t, path)
		if _, err := OpenQueue(path, nil); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("open of corrupt journal = %v, want ErrJournalCorrupt", err)
		}
	})

	t.Run("nothing-at-all-starts-fresh", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal")
		q, err := OpenQueue(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(q.Jobs()); n != 0 {
			t.Fatalf("fresh queue has %d jobs", n)
		}
		q.Close()
	})
}
