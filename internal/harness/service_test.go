package harness

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"strconv"
	"testing"

	"care/cache"
)

// TestSvc runs the library experiment for lru and care: every cell
// must contend (a hit ratio strictly inside (0,1) and evictions), and
// CARE's cost-aware insertion must beat LRU on the scan-flood
// workload, the library's claim. A policy the library cannot drive
// fails the experiment with the library's typed error.
func TestSvc(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("svc replays 400k operations per cell; skipped in -short")
	}
	var buf bytes.Buffer
	if err := NewCampaign().Run(context.Background(), "svc", Options{Out: &buf, CSV: true, Schemes: []string{"lru", "care"}}); err != nil {
		t.Fatalf("Run(svc): %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("svc CSV does not parse: %v\n%s", err, buf.String())
	}
	if len(rows) != 1+3*2 {
		t.Fatalf("%d rows, want a header and 3 workloads × 2 schemes:\n%v", len(rows), rows)
	}
	hit := map[string]map[string]float64{} // workload -> policy -> hit%
	for _, r := range rows[1:] {
		wl, pol := r[0], r[1]
		h, err := strconv.ParseFloat(r[2], 64)
		if err != nil {
			t.Fatalf("%s/%s: hit%% %q: %v", wl, pol, r[2], err)
		}
		ev, err := strconv.ParseUint(r[3], 10, 64)
		if err != nil {
			t.Fatalf("%s/%s: evictions %q: %v", wl, pol, r[3], err)
		}
		if h <= 0 || h >= 100 {
			t.Errorf("%s/%s: hit ratio %v%% out of (0,100)", wl, pol, h)
		}
		if ev == 0 {
			t.Errorf("%s/%s: no evictions; the cell is uncontended", wl, pol)
		}
		if hit[wl] == nil {
			hit[wl] = map[string]float64{}
		}
		hit[wl][pol] = h
	}
	for _, wl := range []string{"zipfian", "scan-flood", "key-churn"} {
		if len(hit[wl]) != 2 {
			t.Errorf("workload %s: rows %v, want lru and care", wl, hit[wl])
		}
	}
	if care, lru := hit["scan-flood"]["care"], hit["scan-flood"]["lru"]; care <= lru {
		t.Errorf("scan-flood: care hit ratio %.2f%% does not beat lru %.2f%%", care, lru)
	}

	err = NewCampaign().Run(context.Background(), "svc", Options{Schemes: []string{"hawkeye"}})
	var unsupported *cache.ErrUnsupportedPolicy
	if !errors.As(err, &unsupported) {
		t.Fatalf("svc with hawkeye: got %v, want *cache.ErrUnsupportedPolicy", err)
	}
}
