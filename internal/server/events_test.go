package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"care/careapi"
)

// sseMsg is one decoded text/event-stream message.
type sseMsg struct {
	name string
	id   string
	data careapi.JobEvent
}

// sseOpen connects to the event stream and pumps decoded messages
// into a channel until the stream ends. Keepalive comments are
// dropped. The returned cancel tears the connection down.
func sseOpen(t *testing.T, url, lastEventID string) (<-chan sseMsg, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream returned %d", resp.StatusCode)
	}
	ch := make(chan sseMsg, 1024)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var msg sseMsg
		var hasData bool
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if hasData {
					ch <- msg
				}
				msg, hasData = sseMsg{}, false
			case strings.HasPrefix(line, "event: "):
				msg.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "id: "):
				msg.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "data: "):
				if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &msg.data) == nil {
					hasData = true
				}
			}
		}
	}()
	return ch, func() { resp.Body.Close() }
}

// nextMsg reads one message or fails the test.
func nextMsg(t *testing.T, ch <-chan sseMsg) sseMsg {
	t.Helper()
	select {
	case msg, ok := <-ch:
		if !ok {
			t.Fatal("stream closed early")
		}
		return msg
	case <-time.After(5 * time.Second):
		t.Fatal("no event within 5s")
	}
	return sseMsg{}
}

// collectUntil drains messages until pred is satisfied, returning
// everything seen (progress messages included).
func collectUntil(t *testing.T, ch <-chan sseMsg, pred func(sseMsg) bool) []sseMsg {
	t.Helper()
	var got []sseMsg
	for {
		msg := nextMsg(t, ch)
		got = append(got, msg)
		if pred(msg) {
			return got
		}
	}
}

func TestSSEStreamsTransitionsLive(t *testing.T) {
	s := startRemoteServer(t, t.TempDir())
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()

	ch, cancel := sseOpen(t, base+"/api/v1/jobs/events", "")
	defer cancel()

	jb, err := submit(s.q, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	claimed, ok, err := s.q.ClaimFor("w1", 60_000, "", &WorkerCaps{Cores: 4})
	if err != nil || !ok {
		t.Fatalf("claim: %v ok=%v", err, ok)
	}
	if _, err := s.q.Renew(jb.ID, "w1", claimed.Attempts, &Progress{Cycles: 123, Phase: "measure"}); err != nil {
		t.Fatal(err)
	}
	if err := s.q.CompleteRemote(jb.ID, "w1", claimed.Attempts, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}

	msgs := collectUntil(t, ch, func(m sseMsg) bool { return m.data.State == StateDone })
	var states []string
	var sawProgress bool
	for _, m := range msgs {
		if m.name == "progress" {
			sawProgress = true
			if m.id != "" {
				t.Fatalf("progress event carries id %q; ids are reserved for journaled transitions", m.id)
			}
			if m.data.Progress == nil || m.data.Progress.Cycles != 123 {
				t.Fatalf("progress payload = %+v", m.data.Progress)
			}
			continue
		}
		if m.id == "" {
			t.Fatalf("transition %+v has no id", m.data)
		}
		states = append(states, m.data.State)
	}
	if !sawProgress {
		t.Fatal("no progress event on the stream")
	}
	want := []string{StatePending, StateRunning, StateDone}
	if len(states) != len(want) {
		t.Fatalf("transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", states, want)
		}
	}
}

func TestSSEFiltersByCampaign(t *testing.T) {
	s := startRemoteServer(t, t.TempDir())
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()

	ch, cancel := sseOpen(t, base+"/api/v1/jobs/events?campaign=alpha", "")
	defer cancel()

	specA := testSpec()
	specA.Campaign = "alpha"
	specB := testSpec()
	specB.Campaign = "beta"
	if _, err := submit(s.q, specB); err != nil {
		t.Fatal(err)
	}
	jbA, err := submit(s.q, specA)
	if err != nil {
		t.Fatal(err)
	}
	msg := nextMsg(t, ch)
	if msg.data.Job != jbA.ID || msg.data.Campaign != "alpha" {
		t.Fatalf("filtered stream delivered %+v", msg.data)
	}
}

func TestSSERejectsBadCursor(t *testing.T) {
	s := startRemoteServer(t, t.TempDir())
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()
	for _, bad := range []string{"x", "1.", "1.x", "-3"} {
		req, _ := http.NewRequest(http.MethodGet, base+"/api/v1/jobs/events", nil)
		req.Header.Set("Last-Event-ID", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var apiErr careapi.Error
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || apiErr.Code != careapi.CodeBadRequest {
			t.Fatalf("cursor %q: %d %+v", bad, resp.StatusCode, apiErr)
		}
	}
}

// TestSSEResumeLosslessAcrossRestart is the streaming tentpole's
// durability proof: a subscriber cut off by a server death reconnects
// with its Last-Event-ID against a fresh instance on the same journal
// and observes every transition it missed — committed before or after
// the restart — exactly once.
func TestSSEResumeLosslessAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := startRemoteServer(t, dir)
	base := "http://" + s1.Addr()

	ch, cancel := sseOpen(t, base+"/api/v1/jobs/events?after=0", "")
	defer cancel()

	specs := []JobSpec{testSpec(), testSpec()}
	jobs, err := s1.q.SubmitSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	c1, ok, err := s1.q.ClaimFor("w1", 60_000, "", nil)
	if err != nil || !ok {
		t.Fatalf("claim: %v ok=%v", err, ok)
	}
	if err := s1.q.CompleteRemote(c1.ID, "w1", c1.Attempts, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}

	// Phase 1: both submits, one claim, one complete.
	seen := map[string]careapi.JobEvent{}
	lastID := ""
	msgs := collectUntil(t, ch, func(m sseMsg) bool { return m.data.State == StateDone })
	for _, m := range msgs {
		if m.id == "" {
			continue
		}
		if _, dup := seen[m.id]; dup {
			t.Fatalf("duplicate event id %s before restart", m.id)
		}
		seen[m.id] = m.data
		lastID = m.id
	}
	if len(seen) != 4 {
		t.Fatalf("phase 1 saw %d transitions, want 4", len(seen))
	}

	// The server dies mid-stream. The subscriber's channel closes.
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, open := <-ch; open {
		// Drain whatever was buffered; the channel must close shortly.
		for range ch {
		}
	}

	// A new instance on the same journal makes more transitions while
	// the subscriber is still disconnected.
	s2 := startRemoteServer(t, dir)
	defer s2.Shutdown(context.Background())
	base2 := "http://" + s2.Addr()
	c2, ok, err := s2.q.ClaimFor("w2", 60_000, "", nil)
	if err != nil || !ok {
		t.Fatalf("post-restart claim: %v ok=%v", err, ok)
	}
	if err := s2.q.CompleteRemote(c2.ID, "w2", c2.Attempts, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}

	// Reconnect with the pre-restart cursor: the journal replays the
	// missed claim+complete, then the stream goes live for the cancel.
	ch2, cancel2 := sseOpen(t, base2+"/api/v1/jobs/events", lastID)
	defer cancel2()
	third, err := submit(s2.q, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	msgs = collectUntil(t, ch2, func(m sseMsg) bool { return m.data.Job == third.ID })
	for _, m := range msgs {
		if m.id == "" {
			continue
		}
		if _, dup := seen[m.id]; dup {
			t.Fatalf("event id %s delivered twice across the resume", m.id)
		}
		seen[m.id] = m.data
	}
	// Full picture: 2 sweep submits + claim/complete per finished job
	// + the third submit = 7 distinct transitions, none lost.
	if len(seen) != 7 {
		t.Fatalf("resume saw %d distinct transitions, want 7: %v", len(seen), seen)
	}
	doneJobs := map[string]bool{}
	for _, ev := range seen {
		if ev.State == StateDone {
			doneJobs[ev.Job] = true
		}
	}
	if len(doneJobs) != 2 || !doneJobs[jobs[0].ID] || !doneJobs[jobs[1].ID] {
		t.Fatalf("completes observed for %v, want both sweep jobs", doneJobs)
	}
}
