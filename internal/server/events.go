// Server-sent events: GET /api/v1/jobs/events streams every job
// state transition (and heartbeat progress watermarks) so clients
// never poll. Event IDs are journal positions ("seq" for single-job
// records, "seq.k" inside an atomic sweep record), which makes resume
// exact: a client that reconnects with Last-Event-ID replays the
// on-disk journal from that position and then switches to the live
// feed, observing every transition exactly once even across a server
// SIGKILL. Progress events carry no id — they are runtime state, not
// journaled, and simply refresh after a resume.
//
// The subscription protocol is lossless by construction: subscribe to
// the hub FIRST, then read the journal, then drain the live channel
// deduplicating by event id. A transition committed during the
// journal read appears on both paths and is emitted once. A
// subscriber that cannot keep up is disconnected (its channel would
// otherwise block the queue) and recovers by reconnecting with its
// last seen id. The journal is never rewritten, so an id stays valid
// across every restart.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"care/careapi"
)

// subBuffer is each subscriber's channel depth. A slow consumer gets
// this much slack before it is dropped; the queue never blocks on it.
const subBuffer = 256

// eventSub is one live stream subscription.
type eventSub struct {
	ch       chan careapi.JobEvent
	job      string // filter: only this job ("" = all)
	campaign string // filter: only this campaign ("" = all)
}

// wants applies the subscription's filters.
func (s *eventSub) wants(ev careapi.JobEvent) bool {
	if s.job != "" && ev.Job != s.job {
		return false
	}
	if s.campaign != "" && ev.Campaign != s.campaign {
		return false
	}
	return true
}

// eventHub fans queue transitions out to SSE subscribers. publish is
// called under the queue mutex, so it must never block: a full
// subscriber is closed and dropped instead (the client reconnects and
// resumes from its Last-Event-ID).
type eventHub struct {
	mu     sync.Mutex
	subs   map[*eventSub]struct{}
	closed bool
}

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[*eventSub]struct{})}
}

// publish delivers ev to every matching subscriber, non-blocking.
func (h *eventHub) publish(ev careapi.JobEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		if !sub.wants(ev) {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			// Lagging consumer: cut it loose rather than stall the queue.
			delete(h.subs, sub)
			close(sub.ch)
		}
	}
}

// subscribe registers a new filtered subscription, or returns nil if
// the hub has shut down.
func (h *eventHub) subscribe(job, campaign string) *eventSub {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	sub := &eventSub{ch: make(chan careapi.JobEvent, subBuffer), job: job, campaign: campaign}
	h.subs[sub] = struct{}{}
	return sub
}

// unsubscribe removes sub; safe to call after the hub already dropped
// or closed it.
func (h *eventHub) unsubscribe(sub *eventSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// Count returns the live subscriber count (/healthz, /metrics).
func (h *eventHub) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Close drops every subscriber and refuses new ones. Must run before
// http.Server.Shutdown: SSE handlers only return when their channel
// closes (or their client leaves), and Shutdown waits for handlers.
func (h *eventHub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for sub := range h.subs {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// stateAfter maps a journal op to the state the job entered. The
// mapping is static (an expire that lands as a cancel is journaled as
// opCancel), which is what lets the resume path derive states from
// raw journal records without replaying the whole queue.
func stateAfter(ev *Event) string {
	switch ev.Op {
	case opSubmit, opSweep, opExpire, opRequeue:
		return StatePending
	case opStart, opClaim:
		return StateRunning
	case opComplete:
		return StateDone
	case opFail:
		return StateFailed
	case opCancel:
		return StateCancelled
	case opSnapshot:
		return ev.State
	}
	return ""
}

// journalJobEvents converts replayed journal records to stream
// events, assigning sweep sub-ids and resolving each job's campaign
// (later records carry only the job ID; the campaign comes from the
// submit/sweep/snapshot record that introduced the spec).
func journalJobEvents(events []Event) []careapi.JobEvent {
	campaigns := make(map[string]string)
	out := make([]careapi.JobEvent, 0, len(events))
	for i := range events {
		ev := &events[i]
		switch ev.Op {
		case opRenew:
			continue // an older server's heartbeat, not a transition
		case opSweep:
			for k := range ev.Specs {
				campaigns[ev.IDs[k]] = ev.Specs[k].Campaign
				out = append(out, careapi.JobEvent{
					Seq: ev.Seq, Sub: k + 1, Op: opSweep, Job: ev.IDs[k],
					State: StatePending, Campaign: ev.Specs[k].Campaign,
				})
			}
			continue
		case opSubmit, opSnapshot:
			if ev.Spec != nil {
				campaigns[ev.Job] = ev.Spec.Campaign
			}
		}
		out = append(out, careapi.JobEvent{
			Seq: ev.Seq, Op: ev.Op, Job: ev.Job, State: stateAfter(ev),
			Campaign: campaigns[ev.Job], Worker: ev.Worker, Attempt: ev.Attempt,
			Error: ev.Error,
		})
	}
	return out
}

// sseWriter frames JobEvents as text/event-stream messages.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// event writes one SSE message. Transitions go out as "event: job"
// with their journal-position id; progress watermarks as "event:
// progress" with no id, so they never advance the browser's
// Last-Event-ID past transitions it hasn't seen.
func (s *sseWriter) event(ev careapi.JobEvent) error {
	name, id := "job", ev.EventID()
	if ev.Op == opProgress {
		name, id = "progress", ""
	}
	// json.Marshal emits no raw newlines, so one data: line suffices.
	body, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if id != "" {
		_, err = fmt.Fprintf(s.w, "event: %s\nid: %s\ndata: %s\n\n", name, id, body)
	} else {
		_, err = fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, body)
	}
	if err != nil {
		return err
	}
	s.fl.Flush()
	return nil
}

// comment writes an SSE comment line (keepalive).
func (s *sseWriter) comment(text string) error {
	if _, err := fmt.Fprintf(s.w, ": %s\n\n", text); err != nil {
		return err
	}
	s.fl.Flush()
	return nil
}

// sseKeepaliveEvery spaces keepalive comments so intermediaries do
// not reap an idle stream.
const sseKeepaliveEvery = 15 * time.Second

// handleEvents serves GET /api/v1/jobs/events. Query: ?job= and
// ?campaign= filter; ?after= is a manual resume cursor ("0" replays
// the whole journal) with the Last-Event-ID header taking precedence
// on reconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, careapi.CodeStreamUnsupported,
			fmt.Errorf("response writer cannot stream"))
		return
	}
	job := r.URL.Query().Get("job")
	campaign := r.URL.Query().Get("campaign")
	var cur careapi.EventCursor
	resume := false
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		c, err := careapi.ParseEventID(lei)
		if err != nil {
			writeError(w, http.StatusBadRequest, careapi.CodeBadRequest, err)
			return
		}
		cur, resume = c, true
	} else if after := r.URL.Query().Get("after"); after != "" {
		c, err := careapi.ParseEventID(after)
		if err != nil {
			writeError(w, http.StatusBadRequest, careapi.CodeBadRequest, err)
			return
		}
		cur, resume = c, true
	}

	// Subscribe BEFORE reading the journal: anything committed during
	// the read shows up on both paths and is deduplicated by id below.
	sub := s.hub.subscribe(job, campaign)
	if sub == nil {
		writeError(w, http.StatusServiceUnavailable, careapi.CodeDraining,
			fmt.Errorf("server is draining"))
		return
	}
	defer s.hub.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	out := &sseWriter{w: w, fl: fl}
	out.comment("stream open")

	if resume {
		data, err := os.ReadFile(s.journalPath)
		if err != nil {
			return
		}
		// A torn tail here means an append is mid-flight; its event will
		// arrive on the live channel we already hold.
		events, _, rerr := replay(data)
		if rerr != nil {
			return
		}
		for _, ev := range journalJobEvents(events) {
			if !ev.After(cur) {
				continue
			}
			if job != "" && ev.Job != job {
				continue
			}
			if campaign != "" && ev.Campaign != campaign {
				continue
			}
			if out.event(ev) != nil {
				return
			}
			cur = careapi.EventCursor{Seq: ev.Seq, Sub: ev.Sub}
		}
	}

	keepalive := time.NewTicker(sseKeepaliveEvery)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepalive.C:
			if out.comment("keepalive") != nil {
				return
			}
		case ev, open := <-sub.ch:
			if !open {
				return // hub closed us (shutdown or lag); client reconnects
			}
			if ev.Op != opProgress {
				if resume && !ev.After(cur) {
					continue // already sent from the journal read
				}
				cur, resume = careapi.EventCursor{Seq: ev.Seq, Sub: ev.Sub}, true
			}
			if out.event(ev) != nil {
				return
			}
		}
	}
}
