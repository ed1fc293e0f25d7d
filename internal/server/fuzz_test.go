package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"care/careapi"
	"care/internal/graph"
	"care/internal/harness"
	"care/internal/sim"
	"care/internal/synth"
)

// FuzzJobSpec feeds arbitrary bytes through the POST /api/v1/jobs
// decode and ValidateSpec. It must never panic, and every spec it
// accepts must stay inside the bounds a worker can run: a known
// workload, 1 to harness.MaxCores cores, and a cache geometry the
// simulator builds.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"spec","workload":"429.mcf","policy":"care","cores":1,"measure":1000}`,
		`{"kind":"gap","workloads":["bfs-or","pr-twitter"],"policies":["lru","care"],"core_counts":[1,64],"measure":10}`,
		`{"kind":"spec","workload":"429.mcf","policy":"care","cores":1000000,"scale":1,"measure":1}`,
		`{"kind":"gap","workload":"bfs","policy":"lru","cores":1,"measure":1}`,
		`{"kind":"spec","workload":"mcf","policy":"lru","cores":2,"measure":1,"priority":100,"constraints":{"labels":["x"]}}`,
		`{"workloads":["a","b","c"],"core_counts":[-1,0]}`,
		`{`, `null`, `[]`, ``,
		`{"kind":"spec","workload":"462.libquantum","policy":"lru","cores":3,"measure":1000}`,
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
			if err := sim.ScaledConfig(s.Cores, s.Scale).Validate(); err != nil {
				t.Fatalf("accepted a spec the simulator refuses: %v", err)
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
// queue that opens must reopen to itself: closing and reopening lists
// the same jobs, with the same claim idempotency keys.
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
		q.Close()
		q, err = OpenQueue(path, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer q.Close()
		if got := stableJobs(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened jobs = %+v\nwant %+v", got, want)
		}
		if !reflect.DeepEqual(q.idemByJob, wantIdem) {
			t.Fatalf("reopened idempotency keys = %v, want %v", q.idemByJob, wantIdem)
		}
	})
}

// fuzzHistory returns the journal of a queue driven through one-job
// and three-job sweeps, local and remote claims, a heartbeat (which
// journals nothing), requeue, complete, fail and cancel, ending with a
// lease still held.
func fuzzHistory(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "journal")
	q, err := OpenQueue(path, nil)
	if err != nil {
		f.Fatal(err)
	}
	q.jnl.nosync = true
	spec := testSpec()
	a, _ := submit(q, spec)
	q.SubmitSweep([]JobSpec{spec, spec, spec})
	q.ClaimFor(careapi.LocalWorker, 60_000, "", nil)
	q.FailRemote(a.ID, careapi.LocalWorker, 1, "requeue", "crash")
	b, _, _ := q.ClaimFor("w1", 5000, "key-b", nil)
	q.Renew(b.ID, "w1", b.Attempts, nil)
	q.CompleteRemote(b.ID, "w1", b.Attempts, []byte(`{"r":1}`))
	c, _, _ := q.ClaimFor("w1", 5000, "", nil)
	q.FailRemote(c.ID, "w1", c.Attempts, "fatal", "boom")
	q.Cancel(a.ID)
	q.ClaimFor("w2", 5000, "key-d", nil)
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

// stableJobs lists q's jobs without what a reopen may change: a
// lease's remaining time is measured from the open.
func stableJobs(q *Queue) []Job {
	jobs := q.Jobs()
	for i := range jobs {
		jobs[i].LeaseMSLeft = 0
	}
	return jobs
}

// workerEndpoints are the worker API's JSON endpoints FuzzWorkerAPI
// posts to.
var workerEndpoints = []string{"claim", "heartbeat", "complete", "fail"}

// FuzzWorkerAPI posts an arbitrary body to one of the worker API's
// claim, heartbeat, complete and fail endpoints of a fresh server that
// holds two submitted jobs, one of them leased to worker w1 under
// token 1. Nothing may panic, and every response must be a 2xx or a
// 4xx carrying the typed error envelope with a known code: bad input
// never reaches a 5xx.
func FuzzWorkerAPI(f *testing.F) {
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, `{"worker":"w2","ttl_ms":1000,"idem":"k"}`},
		{0, `{"worker":""}`},
		{0, `{"worker":"local"}`},
		{0, `{"worker":"w2","caps":{"slots":-1,"cores":-5,"labels":[""]}}`},
		{1, `{"job":"j000001","worker":"w1","token":1,"progress":{"phase":"measure","instructions":5}}`},
		{1, `{"job":"j000001","worker":"w1","token":-9}`},
		{2, `{"job":"j000001","worker":"w1","token":1,"result":{"cycles":1}}`},
		{2, `{"job":"j000001","worker":"w1","token":1}`},
		{2, `{"job":"nope","worker":"w1","token":1,"result":[]}`},
		{3, `{"job":"j000001","worker":"w1","token":1,"kind":"requeue","reason":"drain"}`},
		{3, `{"job":"j000001","worker":"w1","token":1,"kind":"cancel"}`},
		{3, `{"job":"j000001","worker":"w1","token":1,"kind":"bogus"}`},
		{3, `{"job":"j000001","worker":"w1","token":1,"kind":"fail","extra":1}`},
		{1, `{`}, {2, `null`}, {3, `[]`}, {0, ``},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	codes := map[string]bool{}
	for _, c := range []string{CodeStaleLease, CodeUnknownJob, CodeBadRequest, CodeBadTransition,
		CodeDuplicateTerminal, CodeArtifactRejected, CodeArtifactNotFound} {
		codes[c] = true
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		s, err := New(Config{DataDir: t.TempDir(), NoLocalWorkers: true, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.q.Close()
		h := s.routes()
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			return rec
		}
		submit, err := json.Marshal(tinySubmit())
		if err != nil {
			t.Fatal(err)
		}
		if rec := post("/api/v1/jobs", submit); rec.Code != http.StatusCreated {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body)
		}
		if rec := post("/api/v1/worker/claim", []byte(`{"worker":"w1"}`)); rec.Code != http.StatusOK {
			t.Fatalf("claim: %d %s", rec.Code, rec.Body)
		}

		path := "/api/v1/worker/" + workerEndpoints[int(endpoint)%len(workerEndpoints)]
		rec := post(path, body)
		switch {
		case rec.Code >= 200 && rec.Code < 300:
		case rec.Code >= 400 && rec.Code < 500:
			var apiErr APIError
			if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || !codes[apiErr.Code] {
				t.Fatalf("%s %q: HTTP %d with untyped body %s", path, body, rec.Code, rec.Body)
			}
		default:
			t.Fatalf("%s %q: HTTP %d %s", path, body, rec.Code, rec.Body)
		}
	})
}
