// Package careapi is the typed wire surface of the care-server HTTP
// API: every request, response, and error body exchanged on
// /api/v1/** endpoints, importable by servers, workers, dashboards,
// and tests alike. The types here are pure data — no simulator or
// server dependencies — so a client binary pulls in nothing but
// encoding/json.
//
// Versioning: the envelope version is APIVersion; every error body
// carries it so clients can detect a server speaking a different
// dialect. Fields are only ever added (with omitempty), never
// renamed or repurposed, within a major version.
package careapi

import "fmt"

// APIVersion is the major version of the /api/v1 surface, echoed in
// every error envelope.
const APIVersion = 1

// Job states. A job is born pending, moves to running when a worker
// claims it, and ends in exactly one terminal state. Requeue (crash,
// drain, lease expiry, worker panic) moves running back to pending.
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// LocalWorker is the worker name reserved for care-server's
// in-process worker. Its leases die with the server process, so a
// restart re-pends them at once; a remote claim under this name is
// rejected with CodeBadRequest.
const LocalWorker = "local"

// Machine-readable error codes, stable for programmatic dispatch.
// Every non-2xx response from any /api/v1 endpoint carries one.
const (
	CodeStaleLease        = "stale_lease"
	CodeUnknownJob        = "unknown_job"
	CodeBadRequest        = "bad_request"
	CodeBadTransition     = "bad_transition"
	CodeDuplicateTerminal = "duplicate_terminal"
	CodeDraining          = "draining"
	CodeInternal          = "internal"
	CodeArtifactRejected  = "artifact_rejected"
	CodeArtifactNotFound  = "artifact_not_found"
	CodeStreamUnsupported = "stream_unsupported"
)

// Error is the versioned error envelope every endpoint returns on
// failure. Code is stable for machines; Message is for humans. The
// JSON key of Message stays "error" so curl | jq '.error' keeps
// working across versions.
type Error struct {
	V       int    `json:"v"`
	Code    string `json:"code"`
	Message string `json:"error"`
}

// Err builds an envelope for code with a formatted message.
func Err(code, format string, args ...any) Error {
	return Error{V: APIVersion, Code: code, Message: fmt.Sprintf(format, args...)}
}

// Error implements the error interface so an envelope decoded by a
// client can be returned directly.
func (e Error) Error() string {
	return fmt.Sprintf("careapi: %s: %s", e.Code, e.Message)
}
