package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"care/careapi"
	"care/internal/graph"
	"care/internal/harness"
	"care/internal/synth"
)

// FuzzJobSpec feeds arbitrary bytes through the POST /api/v1/jobs
// decode and ValidateSpec. It must never panic, and every spec it
// accepts must stay inside the bounds a worker can run: a known
// workload and 1 to harness.MaxCores cores.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"spec","workload":"429.mcf","policy":"care","cores":1,"measure":1000}`,
		`{"kind":"gap","workloads":["bfs-or","pr-twitter"],"policies":["lru","care"],"core_counts":[1,64],"measure":10}`,
		`{"kind":"spec","workload":"429.mcf","policy":"care","cores":1000000,"scale":1,"measure":1}`,
		`{"kind":"gap","workload":"bfs","policy":"lru","cores":1,"measure":1}`,
		`{"kind":"spec","workload":"mcf","policy":"lru","cores":2,"measure":1,"priority":100,"constraints":{"labels":["x"]}}`,
		`{"workloads":["a","b","c"],"core_counts":[-1,0]}`,
		`{`, `null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	gap := map[string]bool{}
	for _, k := range graph.Kernels() {
		for _, d := range graph.Datasets() {
			gap[k+"-"+d.Short], gap[k+"-"+d.Name] = true, true
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(specs) == 0 || len(specs) > maxSweep {
			t.Fatalf("accepted %d specs", len(specs))
		}
		for _, s := range specs {
			if s.Cores < 1 || s.Cores > harness.MaxCores {
				t.Fatalf("accepted %d cores", s.Cores)
			}
			switch s.Kind {
			case "spec":
				if _, err := synth.Lookup(s.Workload); err != nil {
					t.Fatalf("accepted unknown workload: %v", err)
				}
			case "gap":
				if !gap[s.Workload] {
					t.Fatalf("accepted unknown GAP workload %q", s.Workload)
				}
			default:
				t.Fatalf("accepted kind %q", s.Kind)
			}
		}
	})
}

// FuzzJournalReplay opens a queue on an arbitrary journal. With framed
// set, the input is instead a list of JSON event bodies, one a line,
// which frameEvent frames with correct sequence numbers and checksums
// so the bodies get past the framing into replayEvent (a line that is
// not an event is dropped). Every open must either succeed, truncating
// a torn tail, or fail with ErrJournalCorrupt; it must never panic. A
// queue that opens must survive compaction: compacting, closing and
// reopening lists the same jobs, with the same claim idempotency keys.
func FuzzJournalReplay(f *testing.F) {
	history := fuzzHistory(f)
	f.Add(false, history)
	f.Add(false, history[:len(history)-5]) // torn tail
	f.Add(false, []byte{})
	f.Add(false, []byte(journalMagic+" 1 00000000 {}\n"))
	const spec = `"spec":{"kind":"spec","workload":"429.mcf","policy":"care","cores":1,"measure":1000}`
	for _, bodies := range []string{
		// The legacy in-process pool journaled claims as start records.
		`{"op":"submit","job":"j000001",` + spec + `}
{"op":"start","job":"j000001","attempt":1}
{"op":"requeue","job":"j000001","error":"crash"}
{"op":"start","job":"j000001","attempt":2}`,
		`{"op":"sweep","ids":["j000001","j000002"],"specs":[` + spec[7:] + `,` + spec[7:] + `]}
{"op":"claim","job":"j000002","attempt":1,"worker":"w1","ttl_ms":5000,"idem":"k"}
{"op":"renew","job":"j000002","attempt":1,"worker":"w1"}
{"op":"complete","job":"j000002","attempt":1,"worker":"w1","result":{"r":1}}
{"op":"cancel","job":"j000001"}`,
		`{"op":"snapshot","job":"j000003","state":"running","attempt":4,"worker":"w2","ttl_ms":9000,` + spec + `}
{"op":"expire","job":"j000003","attempt":4,"worker":"w2","error":"lease expired"}
{"op":"fail","job":"j000003","error":"boom"}`,
		`{"op":"submit","job":"j000001",` + spec + `}
{"op":"submit","job":"j000001",` + spec + `}`,
		`{"op":"submit","job":"j000001",` + spec + `}
{"op":"cancel","job":"j000001"}
{"op":"cancel","job":"j000001"}`,
		`{"op":"snapshot","job":"j000001","state":"bogus",` + spec + `}`,
		`{"op":"submit","job":"j000001",` + spec + `}
{"op":"claim","job":"j000001","attempt":7,"worker":"w1","ttl_ms":5000}
{"op":"claim","job":"j000001","attempt":2,"worker":"w2","ttl_ms":5000}`,
	} {
		f.Add(true, []byte(bodies))
	}
	f.Fuzz(func(t *testing.T, framed bool, data []byte) {
		if framed {
			data = frameBodies(data)
		}
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := OpenQueue(path, nil)
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("open = %v, want success or ErrJournalCorrupt", err)
			}
			return
		}
		want, wantIdem := stableJobs(q), q.idemByJob
		if err := q.Compact(); err != nil {
			q.Close()
			t.Fatalf("compact: %v", err)
		}
		q.Close()
		q, err = OpenQueue(path, nil)
		if err != nil {
			t.Fatalf("reopen after compaction: %v", err)
		}
		defer q.Close()
		if got := stableJobs(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("after compaction jobs = %+v\nwant %+v", got, want)
		}
		if !reflect.DeepEqual(q.idemByJob, wantIdem) {
			t.Fatalf("after compaction idempotency keys = %v, want %v", q.idemByJob, wantIdem)
		}
	})
}

// fuzzHistory returns the journal of a queue driven through submit,
// sweep, local and remote claims, renew, requeue, complete, fail and
// cancel, ending with a lease still held.
func fuzzHistory(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "journal")
	q, err := OpenQueue(path, nil)
	if err != nil {
		f.Fatal(err)
	}
	q.jnl.nosync = true
	spec := testSpec()
	a, _ := q.Submit(spec)
	q.SubmitSweep([]JobSpec{spec, spec, spec})
	q.ClaimFor(careapi.LocalWorker, 60_000, "", nil)
	q.FailRemote(a.ID, careapi.LocalWorker, 1, "requeue", "crash")
	b, _, _ := q.ClaimRemote("w1", 5000, "key-b")
	q.Renew(b.ID, "w1", b.Attempts, nil)
	q.CompleteRemote(b.ID, "w1", b.Attempts, []byte(`{"r":1}`))
	c, _, _ := q.ClaimRemote("w1", 5000, "")
	q.FailRemote(c.ID, "w1", c.Attempts, "fatal", "boom")
	q.Cancel(a.ID)
	q.ClaimRemote("w2", 5000, "key-d")
	q.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// frameBodies frames each line of data that decodes as an event, with
// sequence numbers counting from 1.
func frameBodies(data []byte) []byte {
	var out []byte
	var seq uint64
	for _, line := range bytes.Split(data, []byte("\n")) {
		var ev Event
		if json.Unmarshal(line, &ev) != nil {
			continue
		}
		ev.Seq = seq + 1
		rec, err := frameEvent(&ev)
		if err != nil {
			continue
		}
		seq++
		out = append(out, rec...)
	}
	return out
}

// stableJobs lists q's jobs without what compaction is allowed to
// change: sequence numbers are renumbered, and a lease's remaining
// time is measured from the open.
func stableJobs(q *Queue) []Job {
	jobs := q.Jobs()
	for i := range jobs {
		jobs[i].Seq = 0
		jobs[i].LeaseMSLeft = 0
	}
	return jobs
}
