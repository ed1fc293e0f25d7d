// Package worker implements care-worker: the one job executor. It
// claims jobs from a care-server over HTTP, runs them under the
// checkpoint-supervised harness, heartbeats its leases, and ships
// checkpoint artifacts so a job can migrate between machines without
// losing progress or determinism. care-server's own -workers slots run
// this same worker in-process, over loopback.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"care/careapi"
	"care/internal/faultinject"
)

// RemoteError is a non-retryable server rejection (4xx), carrying the
// machine-readable code from the worker API's error body. The one the
// worker dispatches on is stale_lease: the fencing rejection that
// means this worker no longer owns the job.
type RemoteError struct {
	Status  int
	Code    string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("server rejected request (%d %s): %s", e.Status, e.Code, e.Message)
}

// IsStaleLease reports whether err is the server's fencing rejection.
func IsStaleLease(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) &&
		(re.Code == careapi.CodeStaleLease || re.Code == careapi.CodeDuplicateTerminal)
}

// errNoJob is the internal signal for a 204 claim response.
var errNoJob = errors.New("worker: no job available")

// Client is the worker's HTTP client. Every call runs under a
// per-attempt deadline and a jittered exponential backoff retry loop:
// transport errors and 5xx responses are retried; 4xx rejections are
// returned as typed RemoteErrors immediately (retrying a fencing
// rejection cannot succeed). Mutating calls that are not naturally
// idempotent carry idempotency keys (claim) or are idempotent by
// server-side construction (heartbeat, complete, fail), so the retry
// loop is safe even when a response — not the request — was lost.
type Client struct {
	base     string
	hc       *http.Client
	attempts int
	timeout  time.Duration
	backoff  time.Duration

	mu  sync.Mutex
	rng uint64 // xorshift state for backoff jitter
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:7070"). inj may be nil; when its network fault
// classes are enabled the transport drops, delays, duplicates, and
// partitions requests deterministically (chaos testing).
func NewClient(base string, inj *faultinject.Injector, jitterSeed uint64) *Client {
	rt := http.RoundTripper(http.DefaultTransport)
	if inj != nil {
		rt = inj.Transport(rt)
	}
	if jitterSeed == 0 {
		jitterSeed = 1
	}
	return &Client{
		base:     strings.TrimRight(base, "/"),
		hc:       &http.Client{Transport: rt},
		attempts: 5,
		timeout:  10 * time.Second,
		backoff:  100 * time.Millisecond,
		rng:      jitterSeed,
	}
}

// jitterFrac returns a pseudo-random fraction in [0.5, 1.0): "equal
// jitter" keeps at least half the backoff so retries still back off,
// while decorrelating concurrent workers.
func (c *Client) jitterFrac() float64 {
	c.mu.Lock()
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	c.mu.Unlock()
	return 0.5 + float64(x%(1<<20))/(1<<21)
}

// retryDelay is the backoff before retry attempt n (n >= 2).
func (c *Client) retryDelay(n int) time.Duration {
	d := c.backoff
	for i := 2; i < n; i++ {
		d *= 2
		if d >= 2*time.Second {
			d = 2 * time.Second
			break
		}
	}
	return time.Duration(float64(d) * c.jitterFrac())
}

// do runs one API call under the retry policy. in (when non-nil) is
// marshalled once and resent identically on every attempt; out (when
// non-nil) receives the decoded 2xx body. A 204 returns errNoJob.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("worker: encode request: %w", err)
		}
	}
	return c.doRaw(ctx, method, path, body, "application/json", func(resp *http.Response) error {
		if resp.StatusCode == http.StatusNoContent {
			return errNoJob
		}
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// doRaw is the retry loop shared by JSON calls and artifact transfer.
// onOK consumes a 2xx response.
func (c *Client) doRaw(ctx context.Context, method, path string, body []byte, contentType string, onOK func(*http.Response) error) error {
	var lastErr error
	for attempt := 1; attempt <= c.attempts; attempt++ {
		if attempt > 1 {
			t := time.NewTimer(c.retryDelay(attempt))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return errors.Join(ctx.Err(), lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return errors.Join(err, lastErr)
		}
		actx, cancel := context.WithTimeout(ctx, c.timeout)
		err := c.once(actx, method, path, body, contentType, onOK)
		cancel()
		if err == nil || errors.Is(err, errNoJob) {
			return err
		}
		var re *RemoteError
		if errors.As(err, &re) && re.Status < 500 && re.Status != http.StatusServiceUnavailable {
			return err // definitive rejection; retrying cannot change it
		}
		lastErr = err
	}
	return fmt.Errorf("worker: %s %s failed after %d attempts: %w", method, path, c.attempts, lastErr)
}

// once makes a single HTTP attempt.
func (c *Client) once(ctx context.Context, method, path string, body []byte, contentType string, onOK func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("worker: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return onOK(resp)
	}
	re := &RemoteError{Status: resp.StatusCode, Code: careapi.CodeInternal}
	var apiErr careapi.Error
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&apiErr) == nil && apiErr.Code != "" {
		re.Code, re.Message = apiErr.Code, apiErr.Message
	} else {
		// Legacy error shape ({"error": ...}) or no body at all.
		re.Message = resp.Status
	}
	return re
}

// Claim asks for the next pending job this worker is capable of
// running. ok is false when the queue has nothing claimable (or the
// server is draining). idem makes the call idempotent across lost
// responses: reuse the same key until a claim round-trip definitively
// settles. caps (may be nil) registers the worker's capability
// envelope for constraint matching and the fleet view.
func (c *Client) Claim(ctx context.Context, name string, ttl time.Duration, idem string, caps *careapi.WorkerCaps) (careapi.ClaimResponse, bool, error) {
	var resp careapi.ClaimResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/worker/claim",
		careapi.ClaimRequest{Worker: name, TTLMS: ttl.Milliseconds(), Idem: idem, Caps: caps}, &resp)
	if errors.Is(err, errNoJob) {
		return careapi.ClaimResponse{}, false, nil
	}
	var re *RemoteError
	if errors.As(err, &re) && re.Code == careapi.CodeDraining {
		return careapi.ClaimResponse{}, false, nil
	}
	if err != nil {
		return careapi.ClaimResponse{}, false, err
	}
	return resp, true, nil
}

// Heartbeat renews the lease on job under the fencing token,
// piggybacking the job's progress watermark (may be nil) for the
// server's event stream.
func (c *Client) Heartbeat(ctx context.Context, name, job string, token int, progress *careapi.Progress) (careapi.HeartbeatResponse, error) {
	var resp careapi.HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/worker/heartbeat",
		careapi.HeartbeatRequest{Worker: name, Job: job, Token: token, Progress: progress}, &resp)
	return resp, err
}

// Complete commits the job's result under the fencing token. Safe to
// retry: the server treats a duplicate complete from the same lease
// as success.
func (c *Client) Complete(ctx context.Context, name, job string, token int, result json.RawMessage) error {
	return c.do(ctx, http.MethodPost, "/api/v1/worker/complete",
		careapi.CompleteRequest{Worker: name, Job: job, Token: token, Result: result}, nil)
}

// Fail ends the lease without a result; kind is "requeue", "fail", or
// "cancel".
func (c *Client) Fail(ctx context.Context, name, job string, token int, kind, reason string) error {
	return c.do(ctx, http.MethodPost, "/api/v1/worker/fail",
		careapi.FailRequest{Worker: name, Job: job, Token: token, Kind: kind, Reason: reason}, nil)
}

// artifactPath builds the artifact endpoint URL for a job + lease.
func artifactPath(job, name string, token int) string {
	return fmt.Sprintf("/api/v1/worker/jobs/%s/artifact?worker=%s&token=%d", job, name, token)
}

// UploadArtifact ships a checkpoint to the server under the lease.
func (c *Client) UploadArtifact(ctx context.Context, name, job string, token int, data []byte) error {
	return c.doRaw(ctx, http.MethodPut, artifactPath(job, name, token), data,
		"application/octet-stream", func(resp *http.Response) error {
			io.Copy(io.Discard, resp.Body)
			return nil
		})
}

// DownloadArtifact fetches the job's checkpoint under the lease.
// A missing artifact returns (nil, nil): the job starts fresh.
func (c *Client) DownloadArtifact(ctx context.Context, name, job string, token int) ([]byte, error) {
	var data []byte
	err := c.doRaw(ctx, http.MethodGet, artifactPath(job, name, token), nil, "",
		func(resp *http.Response) error {
			var rerr error
			data, rerr = io.ReadAll(resp.Body)
			return rerr
		})
	var re *RemoteError
	if errors.As(err, &re) && re.Code == careapi.CodeArtifactNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}
