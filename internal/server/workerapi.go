// Worker API: the HTTP surface care-worker processes drive — remote
// ones, and the server's own in-process worker over loopback.
// Claim hands out a job under a time-bounded lease; heartbeat renews
// it; complete/fail end it; the artifact endpoints move checkpoint
// files so a job can migrate between machines. Every mutating call
// quotes the lease's fencing token (the job's attempt number,
// journaled in the claim event) and is rejected with a typed
// stale_lease error the moment the caller is no longer the current
// holder — no matter how delayed, duplicated, or reordered the
// request was by the network.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"care/careapi"
)

// API error codes and the error envelope, re-exported from careapi
// under their historical server names.
const (
	CodeStaleLease        = careapi.CodeStaleLease
	CodeUnknownJob        = careapi.CodeUnknownJob
	CodeBadRequest        = careapi.CodeBadRequest
	CodeBadTransition     = careapi.CodeBadTransition
	CodeDuplicateTerminal = careapi.CodeDuplicateTerminal
	CodeDraining          = careapi.CodeDraining
	CodeInternal          = careapi.CodeInternal
	CodeArtifactRejected  = careapi.CodeArtifactRejected
	CodeArtifactNotFound  = careapi.CodeArtifactNotFound
)

// APIError is the versioned error envelope (careapi.Error).
type APIError = careapi.Error

// writeAPIError renders err with a machine-readable code derived from
// the queue's typed errors.
func writeAPIError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, CodeInternal
	switch {
	case errors.Is(err, ErrStaleLease):
		status, code = http.StatusConflict, CodeStaleLease
	case errors.Is(err, ErrDuplicateTerminal):
		status, code = http.StatusConflict, CodeDuplicateTerminal
	case errors.Is(err, ErrUnknownJob):
		status, code = http.StatusNotFound, CodeUnknownJob
	case errors.Is(err, ErrBadTransition):
		status, code = http.StatusConflict, CodeBadTransition
	}
	writeError(w, status, code, err)
}

// Request/response shapes, shared with the worker client via careapi.
type (
	ClaimRequest      = careapi.ClaimRequest
	ClaimResponse     = careapi.ClaimResponse
	HeartbeatRequest  = careapi.HeartbeatRequest
	HeartbeatResponse = careapi.HeartbeatResponse
	CompleteRequest   = careapi.CompleteRequest
	FailRequest       = careapi.FailRequest
)

// ---- handlers ----

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return false
	}
	return true
}

func (s *Server) handleWorkerClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Worker == careapi.LocalWorker && !s.isLocal(r) {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("worker name %q is reserved for the server's in-process worker", req.Worker))
		return
	}
	// Register the worker's capability envelope even when nothing is
	// claimable: the fleet view and scheduler stay current either way.
	s.leases.TouchCaps(req.Worker, req.Caps)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, errors.New("server is draining"))
		return
	}
	jb, ok, err := s.q.ClaimFor(req.Worker, req.TTLMS, req.Idem, req.Caps)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	resp := ClaimResponse{Job: jb}
	if f, _, err := s.artifacts.Open(jb.ID); err == nil {
		f.Close()
		resp.HasArtifact = true
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	s.leases.Touch(req.Worker)
	jb, err := s.q.Renew(req.Job, req.Worker, req.Token, req.Progress)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{
		LeaseMSLeft:     jb.LeaseMSLeft,
		CancelRequested: jb.CancelRequested,
	})
}

func (s *Server) handleWorkerComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeInto(w, r, &req) {
		return
	}
	s.leases.Touch(req.Worker)
	if len(req.Result) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, errors.New("complete needs a result"))
		return
	}
	if err := s.q.CompleteRemote(req.Job, req.Worker, req.Token, req.Result); err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, careapi.StatusResponse{Status: "done"})
}

func (s *Server) handleWorkerFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if !decodeInto(w, r, &req) {
		return
	}
	s.leases.Touch(req.Worker)
	if err := s.q.FailRemote(req.Job, req.Worker, req.Token, req.Kind, req.Reason); err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, careapi.StatusResponse{Status: req.Kind})
}

// leaseParams pulls the worker/token query parameters the artifact
// endpoints fence on.
func leaseParams(r *http.Request) (worker string, token int, err error) {
	worker = r.URL.Query().Get("worker")
	if worker == "" {
		return "", 0, errors.New("missing worker parameter")
	}
	if _, err := fmt.Sscanf(r.URL.Query().Get("token"), "%d", &token); err != nil {
		return "", 0, fmt.Errorf("bad token parameter: %v", err)
	}
	return worker, token, nil
}

// handleArtifactPut accepts a checkpoint upload from the job's
// current lease holder. The body must be a structurally complete
// checkpoint container; anything torn or damaged is rejected before
// it can shadow the previous artifact. (If the lease expires during
// a slow upload the artifact may still land — that is harmless: every
// uploaded checkpoint sits on the job's deterministic checkpoint
// schedule, so the worst case is redone work, never wrong bytes. The
// fencing that matters — complete — is strict.)
func (s *Server) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	worker, token, err := leaseParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	s.leases.Touch(worker)
	if err := s.q.CheckLease(id, worker, token); err != nil {
		writeAPIError(w, err)
		return
	}
	n, err := s.artifacts.Put(id, r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeArtifactRejected, err)
		return
	}
	writeJSON(w, http.StatusOK, careapi.ArtifactStored{Status: "stored", Bytes: n})
}

// handleArtifactGet streams the job's checkpoint artifact to its
// current lease holder (the resume path after a job migrates).
func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	worker, token, err := leaseParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	s.leases.Touch(worker)
	if err := s.q.CheckLease(id, worker, token); err != nil {
		writeAPIError(w, err)
		return
	}
	f, size, err := s.artifacts.Open(id)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeArtifactNotFound, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(size))
	// A mid-stream failure here tears the download; the client's CRC
	// verification catches it and the claim is retried.
	io.Copy(w, f)
}
