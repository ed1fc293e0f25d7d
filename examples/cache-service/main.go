// Command cache-service is a minimal HTTP key-value service fronted
// by the care/cache library — the "use it as a library" example from
// the README, runnable as a real server:
//
//	go run ./examples/cache-service -policy care -capacity 65536
//	curl -X PUT  localhost:8080/kv/user:42 -d '{"name":"x"}' -H 'X-Cost: 180'
//	curl         localhost:8080/kv/user:42
//	curl -X DELETE localhost:8080/kv/user:42
//	curl         localhost:8080/stats
//	curl         localhost:8080/metrics
//
// The optional X-Cost header on PUT is the recompute cost of the
// value (backend latency, in whatever units you like); cost-aware
// policies such as CARE use it to prefer keeping expensive values.
// -policy lru gives the plain baseline for A/B comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"

	"care/cache"
)

// maxValueBytes bounds a single stored value; a cache is not a blob
// store.
const maxValueBytes = 1 << 20

// server wraps the sharded cache with the HTTP surface.
type server struct {
	c      *cache.ShardedCache[string, []byte]
	policy string
}

func newServer(policy string, capacity, shards int) (*server, error) {
	c, err := cache.NewSharded(cache.Options[string, []byte]{
		Capacity: capacity,
		Policy:   policy,
		Shards:   shards,
	})
	if err != nil {
		return nil, err
	}
	return &server{c: c, policy: policy}, nil
}

// handler builds the route table. Go 1.22 method+wildcard patterns
// keep this dependency-free.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /kv/{key}", s.get)
	mux.HandleFunc("PUT /kv/{key}", s.put)
	mux.HandleFunc("DELETE /kv/{key}", s.delete)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /metrics", s.metrics)
	return mux
}

// errorPayload is the typed JSON body every error response carries,
// so clients can match on a stable field instead of parsing prose.
type errorPayload struct {
	Error string `json:"error"`
	// Field names the request element at fault ("X-Cost", "body"),
	// when one is identifiable.
	Field string `json:"field,omitempty"`
}

func writeError(w http.ResponseWriter, status int, field, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorPayload{Error: msg, Field: field})
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	v, ok := s.c.Get(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, "", "cache miss")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(v)
}

// parseCost validates an X-Cost header: it must parse as a finite
// number greater than zero. strconv.ParseFloat happily accepts "NaN"
// and "Inf", and NaN fails every ordered comparison, so the obvious
// `err != nil || cost <= 0` check silently admits both — a NaN cost
// then poisons every cost comparison inside a cost-aware policy.
func parseCost(h string) (float64, error) {
	cost, err := strconv.ParseFloat(strings.TrimSpace(h), 64)
	if err != nil {
		return 0, fmt.Errorf("X-Cost %q is not a number", h)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost <= 0 {
		return 0, fmt.Errorf("X-Cost must be a positive finite number, got %q", h)
	}
	return cost, nil
}

func (s *server) put(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxValueBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "body", err.Error())
		return
	}
	if len(body) > maxValueBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "body",
			fmt.Sprintf("value exceeds %d bytes", maxValueBytes))
		return
	}
	key := r.PathValue("key")
	if h := r.Header.Get("X-Cost"); h != "" {
		cost, err := parseCost(h)
		if err != nil {
			writeError(w, http.StatusBadRequest, "X-Cost", err.Error())
			return
		}
		s.c.PutCost(key, body, cost)
	} else {
		s.c.Put(key, body)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) delete(w http.ResponseWriter, r *http.Request) {
	if !s.c.Delete(r.PathValue("key")) {
		writeError(w, http.StatusNotFound, "", "not present")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// statsPayload is the /stats response body.
type statsPayload struct {
	Policy   string      `json:"policy"`
	Shards   int         `json:"shards"`
	Len      int         `json:"len"`
	HitRatio float64     `json:"hit_ratio"`
	Stats    cache.Stats `json:"stats"`
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	st := s.c.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsPayload{
		Policy:   s.policy,
		Shards:   s.c.Shards(),
		Len:      s.c.Len(),
		HitRatio: st.HitRatio(),
		Stats:    st,
	})
}

// metrics serves the cache's counters in the Prometheus text format.
// It reads them through Stats and Len, which lock every shard, and so
// adds nothing to the Get and Put paths.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	st := s.c.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, m := range []struct {
		name, typ, help string
		v               uint64
	}{
		{"care_cache_hits_total", "counter", "Gets that found their key.", st.Hits},
		{"care_cache_misses_total", "counter", "Gets that did not find their key.", st.Misses},
		{"care_cache_inserts_total", "counter", "Puts of absent keys.", st.Inserts},
		{"care_cache_updates_total", "counter", "Puts that overwrote a present key.", st.Updates},
		{"care_cache_evictions_total", "counter", "Entries the policy evicted to make room.", st.Evictions},
		{"care_cache_deletes_total", "counter", "Deletes that removed a key.", st.Deletes},
		{"care_cache_entries", "gauge", "Live entries.", uint64(s.c.Len())},
		{"care_cache_shards", "gauge", "Shard count.", uint64(s.c.Shards())},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s{policy=%q} %d\n", m.name, m.help, m.name, m.typ, m.name, s.policy, m.v)
	}
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		policy   = flag.String("policy", "care", "eviction policy ("+strings.Join(cache.Supported(), ", ")+")")
		capacity = flag.Int("capacity", 1<<16, "cache capacity (entries)")
		shards   = flag.Int("shards", 0, "shard count (0 = auto)")
	)
	flag.Parse()

	srv, err := newServer(*policy, *capacity, *shards)
	if err != nil {
		log.Fatalf("cache-service: %v", err)
	}
	log.Printf("cache-service: %s policy, %d entries, %d shards, listening on %s",
		srv.policy, *capacity, srv.c.Shards(), *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.handler()))
}
