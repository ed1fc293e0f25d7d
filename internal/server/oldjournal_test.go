package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeOldJournal writes, through Journal.Append, a journal of the kind
// older servers left behind: the snapshot records their startup
// compaction wrote (one of them a live lease with an idempotency key),
// then submit and legacy start records, and heartbeat renew records.
// It returns the state each job must replay to.
func writeOldJournal(t *testing.T, path string) map[string]Job {
	t.Helper()
	spec := testSpec()
	writeJournal(t, path, []Event{
		{Op: opSnapshot, Job: "j000001", Spec: &spec, State: StateDone, Attempt: 3, Worker: "w1", Result: []byte(`{"r":"a"}`)},
		{Op: opSnapshot, Job: "j000002", Spec: &spec, State: StateFailed, Attempt: 2, Worker: "w1", Error: "permanent"},
		{Op: opSnapshot, Job: "j000003", Spec: &spec, State: StateCancelled},
		{Op: opSnapshot, Job: "j000004", Spec: &spec, State: StatePending, Attempt: 4, Error: "bounced"},
		{Op: opSnapshot, Job: "j000005", Spec: &spec, State: StateRunning, Attempt: 2, Worker: "w2", TTLMS: 60_000, Idem: "key-e"},
		{Op: opRenew, Job: "j000005", Attempt: 2, Worker: "w2"},
		{Op: opSubmit, Job: "j000006", Spec: &spec},
		{Op: opStart, Job: "j000006", Attempt: 1},
		{Op: opComplete, Job: "j000006", Result: []byte(`{"r":"f"}`)},
		{Op: opSubmit, Job: "j000007", Spec: &spec},
		{Op: opStart, Job: "j000007", Attempt: 1}, // running when the process died
		{Op: opRenew, Job: "j000005", Attempt: 2, Worker: "w2"},
	})
	return map[string]Job{
		"j000001": {State: StateDone, Attempts: 3, Worker: "w1", Result: []byte(`{"r":"a"}`)},
		"j000002": {State: StateFailed, Attempts: 2, Worker: "w1", Error: "permanent"},
		"j000003": {State: StateCancelled},
		"j000004": {State: StatePending, Attempts: 4, Error: "bounced"},
		"j000005": {State: StateRunning, Attempts: 2, Worker: "w2", LeaseTTLMS: 60_000},
		"j000006": {State: StateDone, Attempts: 1, Result: []byte(`{"r":"f"}`)},
		"j000007": {State: StatePending, Attempts: 1, Error: "requeued: server restarted mid-run"},
	}
}

func sameJob(a, b Job) bool {
	return a.State == b.State && a.Attempts == b.Attempts && a.Worker == b.Worker &&
		string(a.Result) == string(b.Result) && a.Error == b.Error
}

// checkJobs fails unless q holds exactly the jobs in want.
func checkJobs(t *testing.T, q *Queue, want map[string]Job) {
	t.Helper()
	if n := len(q.Jobs()); n != len(want) {
		t.Fatalf("queue holds %d jobs, want %d", n, len(want))
	}
	for id, w := range want {
		if got, err := q.Get(id); err != nil || !sameJob(got, w) {
			t.Fatalf("%s = %+v err=%v, want %+v", id, got, err, w)
		}
	}
}

// TestOldJournalRecordsReplay: a journal holding the snapshot, submit,
// start and renew records older servers wrote replays to the same
// jobs, fencing tokens and claim keys. Opening it rewrites nothing, so
// a reopen sees the same jobs under the same sequence numbers.
func TestOldJournalRecordsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	want := writeOldJournal(t, path)
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	q := openTestQueue(t, path)
	checkJobs(t, q, want)
	stable, idem := stableJobs(q), q.idemByJob
	q.Close()
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, written) {
		t.Fatalf("open and close changed the journal (err %v)", err)
	}

	q2 := openTestQueue(t, path)
	if got := stableJobs(q2); !reflect.DeepEqual(got, stable) {
		t.Fatalf("reopened jobs = %+v\nwant %+v", got, stable)
	}
	if !reflect.DeepEqual(q2.idemByJob, idem) {
		t.Fatalf("reopened claim keys = %v, want %v", q2.idemByJob, idem)
	}
	seq := q2.Seq()
	// The snapshot's lease kept its key: the retried claim gets its own
	// lease back without a new record.
	held, ok, err := q2.ClaimFor("w2", 60_000, "key-e", nil)
	if err != nil || !ok || held.ID != "j000005" || held.Attempts != 2 || q2.Seq() != seq {
		t.Fatalf("retried claim = %+v ok=%v err=%v (seq %d -> %d), want j000005 at token 2",
			held, ok, err, seq, q2.Seq())
	}
	// Its token still fences.
	if _, err := q2.Renew("j000005", "w2", 1, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("renew under token 1 = %v, want ErrStaleLease", err)
	}
	if _, err := q2.Renew("j000005", "w2", 2, nil); err != nil {
		t.Fatal(err)
	}
	// Tokens never regress: each pending job claims past its attempts.
	for _, next := range []struct {
		id    string
		token int
	}{{"j000004", 5}, {"j000007", 2}} {
		jb, ok, err := q2.ClaimFor("w3", 60_000, "", nil)
		if err != nil || !ok || jb.ID != next.id || jb.Attempts != next.token {
			t.Fatalf("claim = %+v ok=%v err=%v, want %s at token %d", jb, ok, err, next.id, next.token)
		}
	}
	// New IDs continue past the replayed ones.
	if jb, err := submit(q2, testSpec()); err != nil || jb.ID != "j000008" {
		t.Fatalf("submit after replay = %+v err=%v, want j000008", jb, err)
	}
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

// TestCompactionCrashWindows rebuilds the data directories an older
// server's startup compaction left when killed at each step — it wrote
// journal.compact, renamed journal to journal.rotated, renamed
// journal.compact to journal, then removed journal.rotated — and pins
// what opening each one does now. A live journal opens as it is, and
// its side files are ignored. With no live journal, a side file
// refuses to start, naming the file: opening an empty journal would
// drop every job. Damage in the live journal is never papered over
// from a side file.
func TestCompactionCrashWindows(t *testing.T) {
	const torn = "CAREJRNL1 1 00000000 {\"op\":\"snapsho"
	build := func(t *testing.T) (string, map[string]Job) {
		path := filepath.Join(t.TempDir(), "journal")
		return path, writeOldJournal(t, path)
	}
	opens := func(t *testing.T, path string, want map[string]Job) {
		t.Helper()
		q, err := OpenQueue(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		checkJobs(t, q, want)
	}
	refuses := func(t *testing.T, path string, sides ...string) {
		t.Helper()
		_, err := OpenQueue(path, nil)
		if err == nil {
			t.Fatal("opened a data dir whose journal is missing beside compaction side files")
		}
		for _, side := range sides {
			if !strings.Contains(err.Error(), side) {
				t.Fatalf("refusal %q does not name %s", err, side)
			}
		}
		if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
			t.Fatalf("refused open created %s", path)
		}
		if _, err := New(Config{DataDir: filepath.Dir(path), NoLocalWorkers: true}); err == nil {
			t.Fatal("server started on a data dir whose journal is missing beside compaction side files")
		}
	}
	write := func(t *testing.T, path, data string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rename := func(t *testing.T, from, to string) {
		t.Helper()
		if err := os.Rename(from, to); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("crash-mid-snapshot-write", func(t *testing.T) {
		path, want := build(t)
		write(t, path+".compact", torn)
		opens(t, path, want)
	})

	t.Run("crash-between-renames", func(t *testing.T) {
		path, _ := build(t)
		rename(t, path, path+".compact")
		write(t, path+".rotated", torn)
		refuses(t, path, path+".compact", path+".rotated")
	})

	t.Run("crash-before-rotated-cleanup", func(t *testing.T) {
		path, want := build(t)
		write(t, path+".rotated", "CAREJRNL1 1 00000000 whatever\n")
		opens(t, path, want)
	})

	t.Run("live-missing-compact-torn-rotated-intact", func(t *testing.T) {
		path, _ := build(t)
		rename(t, path, path+".rotated")
		write(t, path+".compact", torn)
		refuses(t, path, path+".compact", path+".rotated")
	})

	t.Run("live-corrupt-rotated-intact", func(t *testing.T) {
		path, _ := build(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		write(t, path+".rotated", string(data))
		corruptMidFile(t, path)
		if _, err := OpenQueue(path, nil); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("open of corrupt journal = %v, want ErrJournalCorrupt", err)
		}
	})

	t.Run("live-corrupt-no-fallback-refuses", func(t *testing.T) {
		path, _ := build(t)
		corruptMidFile(t, path)
		if _, err := OpenQueue(path, nil); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("open of corrupt journal = %v, want ErrJournalCorrupt", err)
		}
	})

	t.Run("nothing-at-all-starts-fresh", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal")
		opens(t, path, map[string]Job{})
	})
}
