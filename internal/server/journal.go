// Package server implements care-server: a long-running daemon that
// executes campaign simulations as durable jobs. Submissions, state
// transitions, and results are committed to an append-only journal
// before they are acknowledged or applied, so a hard kill at any
// instant loses nothing: on restart the journal is replayed, jobs
// caught mid-run resume from their checkpoints, and every job
// completes exactly once with results identical to an uninterrupted
// run. The journal holds transitions only and is never rewritten:
// heartbeats are runtime state, so a record's sequence number is its
// position for the life of the data directory.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"strconv"
	"strings"

	"care/internal/faultinject"
)

// journalMagic opens every record line. The trailing 1 is the format
// version; replay rejects journals written by a different version.
const journalMagic = "CAREJRNL1"

// ErrJournalCorrupt marks damage in the journal *body*: an unreadable
// record with valid records after it. (An unreadable final record is
// a torn tail from a crash mid-append — that is expected damage, and
// replay silently truncates it instead.)
var ErrJournalCorrupt = errors.New("server: journal corrupt")

// Event is one journal record: a job state transition. The journal is
// the only durable state the server has; everything in memory is a
// replay of these.
type Event struct {
	// Seq is the record's sequence number, strictly increasing by one.
	// It lives in the line framing, not the JSON body; Append and
	// replay fill it in.
	Seq uint64 `json:"-"`
	// Op is the transition: sweep, claim, expire, requeue, complete,
	// fail, or cancel. Replay also reads what older servers wrote:
	// submit, legacy start, renew (no effect), and snapshot.
	Op string `json:"op"`
	// Job is the job ID the event applies to ("" on sweep events,
	// which carry IDs instead).
	Job string `json:"job,omitempty"`
	// Spec rides on submit and snapshot events.
	Spec *JobSpec `json:"spec,omitempty"`
	// Specs and IDs ride on sweep events: the whole cross product,
	// committed as one atomic record (IDs[i] is Specs[i]'s job).
	Specs []JobSpec `json:"specs,omitempty"`
	// IDs are the job IDs assigned to Specs, pairwise.
	IDs []string `json:"ids,omitempty"`
	// Attempt is the server-level execution count on start events and
	// the lease fencing token on claim/expire/complete events.
	Attempt int `json:"attempt,omitempty"`
	// Worker names the remote worker, on claim/expire/complete events
	// (and snapshot records of leased jobs).
	Worker string `json:"worker,omitempty"`
	// TTLMS is the granted lease duration, on claim events.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Caps is the claiming worker's registered capability envelope, on
	// claim events. Pure narration: replay derives no state from it,
	// which is also why old journals (no caps field) and new ones
	// replay identically. The scheduling decision it influenced is
	// already fixed by which job the claim record names.
	Caps *WorkerCaps `json:"caps,omitempty"`
	// Idem is the claim's idempotency key: a duplicate or retried
	// claim quoting the same key is answered with the same lease
	// instead of a second job.
	Idem string `json:"idem,omitempty"`
	// Result is the canonical result JSON, on complete events.
	Result json.RawMessage `json:"result,omitempty"`
	// Error rides on fail, requeue, and expire events.
	Error string `json:"error,omitempty"`
	// State is the full job state, on snapshot records (written by
	// older servers' startup compaction, still replayed).
	State string `json:"state,omitempty"`
}

// Journal is the append-only write-ahead log. Append is the commit
// point for every state transition: once it returns, the event is
// durable (fsynced by default) and will be replayed after any crash.
// It is not safe for concurrent use; the queue serialises access
// under its own lock.
type Journal struct {
	f    *os.File
	path string
	seq  uint64
	size int64
	// nosync skips the per-append fsync (tests only; the chaos suite
	// always runs with fsync on).
	nosync bool
	inj    *faultinject.Injector
}

// OpenJournal opens (creating if absent) the journal at path, replays
// every intact record, truncates a torn tail left by a crash
// mid-append, and returns the journal positioned for appending. inj
// may be nil; when set, its server crash classes fire on appends.
func OpenJournal(path string, inj *faultinject.Injector) (*Journal, []Event, error) {
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		// Older servers compacted by renaming the journal to .rotated
		// and a rewritten .compact into its place; a kill between the
		// renames left only the side files. Creating an empty journal
		// beside them would silently drop every job.
		var sides []string
		for _, side := range []string{path + ".compact", path + ".rotated"} {
			if _, err := os.Stat(side); err == nil {
				sides = append(sides, side)
			}
		}
		if len(sides) > 0 {
			return nil, nil, fmt.Errorf("server: %s is missing but %s exists (an older server was killed mid-compaction); move an intact one to %s to recover",
				path, strings.Join(sides, " and "), path)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: open journal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: read journal: %w", err)
	}
	events, good, err := replay(data)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%w (%s): %v", ErrJournalCorrupt, path, err)
	}
	if good < int64(len(data)) {
		// Torn tail: drop the partial record so the next append starts
		// on a clean boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("server: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("server: seek journal: %w", err)
	}
	j := &Journal{f: f, path: path, size: good, inj: inj}
	if n := len(events); n > 0 {
		j.seq = events[n-1].Seq
	}
	return j, events, nil
}

// replay parses records from data, returning the events and the byte
// offset of the first unparseable line. An unparseable *final* line is
// a torn tail (good < len(data), nil error); anything unparseable with
// valid data after it — or a sequence break — is corruption.
func replay(data []byte) (events []Event, good int64, err error) {
	var seq uint64
	off := int64(0)
	for len(data) > 0 {
		line := data
		rest := []byte(nil)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, rest = data[:i], data[i+1:]
		} else {
			// No terminator: a crash cut the final record short.
			return events, off, nil
		}
		ev, perr := parseRecord(line, seq+1)
		if perr != nil {
			if len(rest) == 0 {
				return events, off, nil // torn final record
			}
			return nil, 0, fmt.Errorf("record %d (offset %d): %v", seq+1, off, perr)
		}
		seq = ev.Seq
		events = append(events, ev)
		off += int64(len(line)) + 1
		data = rest
	}
	return events, off, nil
}

// parseRecord decodes one framed line: MAGIC <seq> <crc32hex> <json>.
func parseRecord(line []byte, wantSeq uint64) (Event, error) {
	fields := bytes.SplitN(line, []byte(" "), 4)
	if len(fields) != 4 || string(fields[0]) != journalMagic {
		return Event{}, errors.New("bad framing")
	}
	seq, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad sequence number: %v", err)
	}
	if seq != wantSeq {
		return Event{}, fmt.Errorf("sequence %d, want %d", seq, wantSeq)
	}
	crc, err := strconv.ParseUint(string(fields[2]), 16, 32)
	if err != nil {
		return Event{}, fmt.Errorf("bad checksum field: %v", err)
	}
	if got := crc32.ChecksumIEEE(fields[3]); got != uint32(crc) {
		return Event{}, fmt.Errorf("checksum %08x, recorded %08x", got, crc)
	}
	var ev Event
	if err := json.Unmarshal(fields[3], &ev); err != nil {
		return Event{}, fmt.Errorf("bad record body: %v", err)
	}
	ev.Seq = seq
	return ev, nil
}

// Append commits one event: assigns the next sequence number, writes
// the framed record, and fsyncs before returning. Once Append returns
// the transition is durable; callers apply it to in-memory state only
// after this returns (write-ahead ordering). A failed append leaves
// the journal exactly as it was — the sequence number is not consumed
// and any partial bytes are truncated away — so the queue stays
// usable after a refused commit.
func (j *Journal) Append(ev *Event) error {
	if j.inj != nil {
		if err := j.inj.OnJournalAppendAttempt(); err != nil {
			return err
		}
	}
	ev.Seq = j.seq + 1
	line, err := frameEvent(ev)
	if err != nil {
		return err
	}
	start := j.size
	if _, err := j.f.WriteString(line); err != nil {
		// Roll the file back to the last committed boundary; best
		// effort — replay truncates a torn tail anyway.
		j.f.Truncate(j.size)
		j.f.Seek(j.size, 0)
		return fmt.Errorf("server: append journal: %w", err)
	}
	j.seq++
	j.size += int64(len(line))
	if !j.nosync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("server: sync journal: %w", err)
		}
	}
	if j.inj != nil {
		// Chaos window: the record is durable but not yet acknowledged
		// or applied. A kill here must be closed by replay.
		j.inj.OnJournalAppend(j.f, start, int64(len(line)))
	}
	return nil
}

// frameEvent renders ev as one journal line: MAGIC <seq> <crc32hex>
// <json>, the framing parseRecord reads back.
func frameEvent(ev *Event) (string, error) {
	body, err := json.Marshal(ev)
	if err != nil {
		return "", fmt.Errorf("server: encode journal event: %w", err)
	}
	return fmt.Sprintf("%s %d %08x %s\n", journalMagic, ev.Seq, crc32.ChecksumIEEE(body), body), nil
}

// Seq returns the sequence number of the last committed event.
func (j *Journal) Seq() uint64 { return j.seq }

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
