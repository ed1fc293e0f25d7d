package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// client wraps the test server with the small op vocabulary the load
// script uses.
type client struct {
	t    *testing.T
	base string
	http *http.Client
}

func (c *client) do(method, key string, body []byte, cost string) (*http.Response, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+"/kv/"+key, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	if cost != "" {
		req.Header.Set("X-Cost", cost)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, data
}

// TestServiceBasics: the HTTP contract — PUT/GET/DELETE round-trip,
// misses and double-deletes 404, bad cost headers 400, and /stats
// reflects the traffic.
func TestServiceBasics(t *testing.T) {
	for _, pol := range []string{"care", "lru"} {
		t.Run(pol, func(t *testing.T) {
			srv, err := newServer(pol, 1024, 2)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.handler())
			defer ts.Close()
			c := &client{t: t, base: ts.URL, http: ts.Client()}

			if resp, _ := c.do("GET", "missing", nil, ""); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET missing: %d, want 404", resp.StatusCode)
			}
			if resp, _ := c.do("PUT", "a", []byte("hello"), "180"); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("PUT: %d, want 204", resp.StatusCode)
			}
			if resp, body := c.do("GET", "a", nil, ""); resp.StatusCode != http.StatusOK || string(body) != "hello" {
				t.Fatalf("GET a: %d %q", resp.StatusCode, body)
			}
			// Every malformed X-Cost must 400 with the typed error body.
			// NaN and Inf parse fine and NaN fails every comparison, so
			// they regress silently without explicit checks.
			for _, bad := range []string{"not-a-number", "-3", "0", "NaN", "nan", "Inf", "+Inf", "-Inf", "1e999"} {
				resp, body := c.do("PUT", "bad", []byte("x"), bad)
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("X-Cost %q: %d, want 400", bad, resp.StatusCode)
				}
				var ep errorPayload
				if err := json.Unmarshal(body, &ep); err != nil {
					t.Fatalf("X-Cost %q: error body %q is not JSON: %v", bad, body, err)
				}
				if ep.Field != "X-Cost" || ep.Error == "" {
					t.Fatalf("X-Cost %q: error payload %+v, want field X-Cost and a message", bad, ep)
				}
			}
			// A rejected PUT must not have stored anything.
			if resp, _ := c.do("GET", "bad", nil, ""); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET after rejected PUT: %d, want 404", resp.StatusCode)
			}
			if resp, _ := c.do("DELETE", "a", nil, ""); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("DELETE: %d, want 204", resp.StatusCode)
			}
			if resp, _ := c.do("DELETE", "a", nil, ""); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("double DELETE: %d, want 404", resp.StatusCode)
			}

			statsResp, err := ts.Client().Get(ts.URL + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			defer statsResp.Body.Close()
			var payload statsPayload
			if err := json.NewDecoder(statsResp.Body).Decode(&payload); err != nil {
				t.Fatalf("/stats does not parse: %v", err)
			}
			if payload.Policy != pol || payload.Shards < 1 {
				t.Fatalf("stats payload %+v", payload)
			}
			if payload.Stats.Hits == 0 || payload.Stats.Misses == 0 || payload.Stats.Deletes != 1 {
				t.Fatalf("stats counters %+v", payload.Stats)
			}
		})
	}
}

// TestServiceMetrics: /metrics serves every counter, the entry count
// and the shard count in the Prometheus text format, each sample
// labelled with the policy and each family with HELP and TYPE lines,
// and the values match the traffic that was sent.
func TestServiceMetrics(t *testing.T) {
	srv, err := newServer("care", 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, http: ts.Client()}

	c.do("PUT", "a", []byte("1"), "")
	c.do("GET", "a", nil, "")       // hit
	c.do("GET", "missing", nil, "") // miss
	c.do("PUT", "a", []byte("2"), "")
	c.do("DELETE", "a", nil, "")
	const fill = 200 // three times the capacity, so some Puts evict
	for i := 0; i < fill; i++ {
		c.do("PUT", fmt.Sprintf("k%d", i), []byte("x"), "100")
	}
	st, n := srv.c.Stats(), srv.c.Len()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after %d inserts into 64 entries: %+v", fill, st)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q, want text/plain", ct)
	}
	samples := map[string]uint64{}
	types := map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, `{policy="care"} `)
		if !ok {
			t.Fatalf("sample %q lacks the policy label", line)
		}
		v, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"care_cache_hits_total":      1,
		"care_cache_misses_total":    1,
		"care_cache_inserts_total":   1 + fill,
		"care_cache_updates_total":   1,
		"care_cache_evictions_total": st.Evictions,
		"care_cache_deletes_total":   1,
		"care_cache_entries":         uint64(n),
		"care_cache_shards":          2,
	}
	for name, v := range want {
		got, ok := samples[name]
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		if got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
		typ := "counter"
		if !strings.HasSuffix(name, "_total") {
			typ = "gauge"
		}
		if types[name] != typ {
			t.Errorf("%s has TYPE %q, want %q", name, types[name], typ)
		}
	}
	if len(samples) != len(want) {
		t.Errorf("%d samples, want %d: %v", len(samples), len(want), samples)
	}
}

// TestServiceLoadScript drives the service from concurrent workers —
// the load-script test from the issue. Each worker owns a key range
// (writes then reads must round-trip exactly) and shares a hot range
// with everyone (read-through misses repopulate). Afterwards /stats
// must be conservation-consistent with the traffic.
func TestServiceLoadScript(t *testing.T) {
	srv, err := newServer("care", 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const (
		workers = 8
		rounds  = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := ts.Client()
			put := func(key, val, cost string) error {
				req, err := http.NewRequest("PUT", ts.URL+"/kv/"+key, bytes.NewReader([]byte(val)))
				if err != nil {
					return err
				}
				req.Header.Set("X-Cost", cost)
				resp, err := c.Do(req)
				if err != nil {
					return err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					return fmt.Errorf("PUT %s: status %d", key, resp.StatusCode)
				}
				return nil
			}
			rng := uint64(w)*2654435761 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < rounds; i++ {
				r := next()
				switch r % 4 {
				case 0: // owned write, then read it straight back
					key := fmt.Sprintf("w%d-%d", w, r%64)
					val := fmt.Sprintf("v-%d-%d", w, r)
					if err := put(key, val, fmt.Sprint(25+r%400)); err != nil {
						errs <- err
						return
					}
					resp, err := c.Get(ts.URL + "/kv/" + key)
					if err != nil {
						errs <- err
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					// The owned key may be evicted under pressure but
					// must never return a torn/foreign value.
					if resp.StatusCode == http.StatusOK && string(body) != val {
						errs <- fmt.Errorf("key %s: got %q, want %q", key, body, val)
						return
					}
				case 1: // shared hot read-through
					key := fmt.Sprintf("hot-%d", r%128)
					resp, err := c.Get(ts.URL + "/kv/" + key)
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode == http.StatusNotFound {
						if err := put(key, "shared-"+key, "200"); err != nil {
							errs <- err
							return
						}
					}
				case 2: // owned delete
					req, _ := http.NewRequest("DELETE", ts.URL+fmt.Sprintf("/kv/w%d-%d", w, r%64), nil)
					resp, err := c.Do(req)
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				default: // shared read, value must be intact if present
					key := fmt.Sprintf("hot-%d", r%128)
					resp, err := c.Get(ts.URL + "/kv/" + key)
					if err != nil {
						errs <- err
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK && string(body) != "shared-"+key {
						errs <- fmt.Errorf("hot key %s corrupted: %q", key, body)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload statsPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	st := payload.Stats
	if st.Hits+st.Misses == 0 || st.Inserts == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
	if got := st.Inserts - st.Evictions - st.Deletes; got != uint64(payload.Len) {
		t.Fatalf("conservation: inserts %d - evictions %d - deletes %d = %d, len %d",
			st.Inserts, st.Evictions, st.Deletes, got, payload.Len)
	}
	if err := srv.c.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRejectsSimulatorPolicy: construction fails with the
// typed capability error for simulator-only policies.
func TestServiceRejectsSimulatorPolicy(t *testing.T) {
	if _, err := newServer("hawkeye", 1024, 0); err == nil {
		t.Fatal("simulator-only policy accepted")
	}
}
