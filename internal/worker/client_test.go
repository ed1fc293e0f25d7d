package worker

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"care/careapi"
	"care/internal/faultinject"
)

func fastClient(base string, inj *faultinject.Injector) *Client {
	c := NewClient(base, inj, 1)
	c.backoff = time.Millisecond // keep retry tests quick
	c.timeout = 2 * time.Second
	return c
}

func TestClientRetriesTransientServerErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(careapi.HeartbeatResponse{LeaseMSLeft: 1234})
	}))
	defer srv.Close()

	c := fastClient(srv.URL, nil)
	hb, err := c.Heartbeat(context.Background(), "w1", "j1", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hb.LeaseMSLeft != 1234 || calls.Load() != 3 {
		t.Fatalf("hb=%+v after %d calls, want success on 3rd", hb, calls.Load())
	}
}

func TestClientReturnsTypedErrorImmediatelyOn4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(careapi.Error{Code: careapi.CodeStaleLease, Message: "lease lost"})
	}))
	defer srv.Close()

	c := fastClient(srv.URL, nil)
	err := c.Complete(context.Background(), "w1", "j1", 1, json.RawMessage(`{}`))
	if !IsStaleLease(err) {
		t.Fatalf("err = %v, want stale-lease", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusConflict || re.Code != careapi.CodeStaleLease {
		t.Fatalf("err = %#v, want typed RemoteError{409, stale_lease}", err)
	}
	// 4xx is a semantic answer, not a network hiccup: no retries.
	if calls.Load() != 1 {
		t.Fatalf("client retried a 409 %d times", calls.Load()-1)
	}
}

func TestClientRetriesThroughInjectedNetFaults(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(io.Discard, r.Body)
		json.NewEncoder(w).Encode(careapi.HeartbeatResponse{LeaseMSLeft: 99})
	}))
	defer srv.Close()

	// Every 2nd request is dropped before send; the retry loop must
	// absorb that without surfacing an error.
	inj := faultinject.New(faultinject.Config{NetDropRequestEvery: 2})
	c := fastClient(srv.URL, inj)
	for i := 0; i < 4; i++ {
		if _, err := c.Heartbeat(context.Background(), "w1", "j1", 1, nil); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if got := inj.Stats().RequestsDropped; got == 0 {
		t.Fatal("injector never fired; test proves nothing")
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c := fastClient(srv.URL, nil)
	_, err := c.Heartbeat(context.Background(), "w1", "j1", 1, nil)
	if err == nil {
		t.Fatal("expected failure against a permanently-down server")
	}
	if calls.Load() != int64(c.attempts) {
		t.Fatalf("made %d attempts, want %d", calls.Load(), c.attempts)
	}
}

func TestClientClaimNoJobAndDraining(t *testing.T) {
	mode := "empty"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode {
		case "empty":
			w.WriteHeader(http.StatusNoContent)
		case "draining":
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(careapi.Error{Code: careapi.CodeDraining, Message: "shutting down"})
		}
	}))
	defer srv.Close()

	c := fastClient(srv.URL, nil)
	if _, ok, err := c.Claim(context.Background(), "w1", time.Minute, "", nil); ok || err != nil {
		t.Fatalf("claim on empty queue: ok=%v err=%v, want quiet no-job", ok, err)
	}
	mode = "draining"
	if _, ok, err := c.Claim(context.Background(), "w1", time.Minute, "", nil); ok || err != nil {
		t.Fatalf("claim on draining server: ok=%v err=%v, want quiet no-job", ok, err)
	}
}

func TestRetryDelayBackoffEnvelope(t *testing.T) {
	c := NewClient("http://x", nil, 42)
	prevMax := time.Duration(0)
	for n := 2; n <= 9; n++ {
		d := c.retryDelay(n)
		// Equal jitter: delay lands in [cap/2, cap] where cap doubles
		// per retry (n counts attempts, so the first retry is n=2) and
		// saturates at 2s.
		max := c.backoff << (n - 2)
		if max > 2*time.Second {
			max = 2 * time.Second
		}
		if d < max/2 || d > max {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", n, d, max/2, max)
		}
		if max > prevMax {
			prevMax = max
		}
	}
	if prevMax != 2*time.Second {
		t.Fatalf("backoff never reached the 2s cap (max %v)", prevMax)
	}
}
