package main

import (
	"encoding/csv"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// runCareBench runs the test binary as care-bench with args and
// returns its stdout, stderr and exit error.
func runCareBench(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CARE_BENCH_REEXEC=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestCacheBenchReport runs the library report end to end as CI does,
// `care-bench -run svc -csv`, and checks it is complete and sane: one
// row per workload × default scheme, every cell contended, and CARE
// beating plain LRU on the scan-flood workload (the library's
// acceptance criterion: cost-aware scan resistance that LRU lacks).
func TestCacheBenchReport(t *testing.T) {
	if testing.Short() {
		t.Skip("svc replays 400k operations per cell; skipped in -short")
	}
	stdout, stderr, err := runCareBench(t, "-run", "svc", "-csv")
	if err != nil {
		t.Fatalf("care-bench -run svc -csv: %v\n%s%s", err, stdout, stderr)
	}
	// The experiment banner and timing line frame the CSV table.
	var table []string
	for _, line := range strings.Split(stdout, "\n") {
		if line == "" || strings.HasPrefix(line, "== ") || strings.HasPrefix(line, "(svc in ") {
			continue
		}
		table = append(table, line)
	}
	rows, err := csv.NewReader(strings.NewReader(strings.Join(table, "\n"))).ReadAll()
	if err != nil {
		t.Fatalf("report does not parse as CSV: %v\n%s", err, stdout)
	}
	if len(rows) == 0 || rows[0][0] != "workload" || rows[0][2] != "hit%" || rows[0][3] != "evictions" {
		t.Fatalf("report header wrong:\n%s", stdout)
	}
	policies := []string{"lru", "srrip", "ship++", "care"}
	workloads := []string{"zipfian", "scan-flood", "key-churn"}
	if want := 1 + len(workloads)*len(policies); len(rows) != want {
		t.Fatalf("%d rows, want %d:\n%s", len(rows), want, stdout)
	}
	hit := map[string]map[string]float64{} // workload -> policy -> hit%
	for _, r := range rows[1:] {
		wl, pol := r[0], r[1]
		h, err := strconv.ParseFloat(r[2], 64)
		if err != nil || h <= 0 || h >= 100 {
			t.Fatalf("%s/%s: hit%% %q out of (0,100)", wl, pol, r[2])
		}
		if ev, err := strconv.ParseUint(r[3], 10, 64); err != nil || ev == 0 {
			t.Fatalf("%s/%s: evictions %q; the cell is uncontended", wl, pol, r[3])
		}
		if hit[wl] == nil {
			hit[wl] = map[string]float64{}
		}
		hit[wl][pol] = h
	}
	for _, wl := range workloads {
		for _, pol := range policies {
			if _, ok := hit[wl][pol]; !ok {
				t.Fatalf("workload %s missing policy %s: %v", wl, pol, hit[wl])
			}
		}
	}
	if care, lru := hit["scan-flood"]["care"], hit["scan-flood"]["lru"]; care <= lru {
		t.Fatalf("scan-flood: care hit ratio %.2f%% does not beat lru %.2f%%", care, lru)
	}
}

// TestCacheBenchUnknownPolicy: a policy the library rejects surfaces
// as a named error and exit status 1, not a panic or silent skip.
func TestCacheBenchUnknownPolicy(t *testing.T) {
	// hawkeye is simulator-only: it needs OPTgen state.
	stdout, stderr, err := runCareBench(t, "-run", "svc", "-schemes", "hawkeye")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("svc with hawkeye exited %v, want code 1\n%s%s", err, stdout, stderr)
	}
	if !strings.Contains(stderr, `unsupported policy "hawkeye"`) || strings.Contains(stderr, "panic") {
		t.Fatalf("stderr does not name the unsupported policy:\n%s", stderr)
	}
}
