package harness

import (
	"bytes"
	"context"
	"testing"

	"care/internal/telemetry"
)

// TestTelemetryMergedOutput runs parallel experiments with telemetry
// on and checks each merged JSONL stream has one well-formed series
// per simulation, the mixed-workload and ablation runs included. Under
// -race this also exercises the per-simulation collector / shared
// registry split.
func TestTelemetryMergedOutput(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		id     string
		series int
	}{
		{"fig7", 4},      // 2 workloads x 2 schemes
		{"fig10", 4},     // 2 mixes x 2 schemes
		{"abl-mshr", 16}, // 4 MSHR sizes x 2 workloads x {lru, care}
	} {
		t.Run(tc.id, func(t *testing.T) {
			var tel bytes.Buffer
			o := tiny()
			o.Parallelism = 4
			o.Telemetry = "jsonl"
			o.TelemetryInterval = 2000
			o.TelemetryOut = &tel
			runExp(t, NewCampaign(), tc.id, o) // a cold campaign collects every run

			series, err := telemetry.ReadJSONL(&tel)
			if err != nil {
				t.Fatalf("merged telemetry does not parse: %v", err)
			}
			if len(series) != tc.series {
				tags := make([]string, 0, len(series))
				for _, s := range series {
					tags = append(tags, s.Meta.Tag)
				}
				t.Fatalf("got %d series %v, want %d", len(series), tags, tc.series)
			}
			for i := 1; i < len(series); i++ {
				if series[i-1].Meta.Tag >= series[i].Meta.Tag {
					t.Errorf("series not sorted by tag: %q before %q", series[i-1].Meta.Tag, series[i].Meta.Tag)
				}
			}
			for _, s := range series {
				if s.Meta.Interval != 2000 || s.Meta.Cores != 4 || s.Meta.Policy == "" {
					t.Errorf("series %q has bad meta %+v", s.Meta.Tag, s.Meta)
				}
				if len(telemetry.Measured(s.Intervals)) == 0 {
					t.Errorf("series %q has no measured intervals", s.Meta.Tag)
				}
			}
		})
	}
}

// TestTelemetryBadFormat: an invalid format is rejected before any
// simulation runs.
func TestTelemetryBadFormat(t *testing.T) {
	o := tiny()
	o.Telemetry = "xml"
	if err := NewCampaign().Run(context.Background(), "fig7", o); err == nil {
		t.Fatal("invalid telemetry format should error")
	}
}

// TestTelemetryMemoisedRunsSkipCollection: a second telemetry run over
// simulations its campaign already memoised produces no series
// (documented behaviour) rather than stale or duplicated ones.
func TestTelemetryMemoisedRunsSkipCollection(t *testing.T) {
	t.Parallel()
	c := NewCampaign()
	o := tiny()
	runExp(t, c, "fig7", o) // populate the memo without telemetry

	var tel bytes.Buffer
	o2 := tiny()
	o2.Telemetry = "jsonl"
	o2.TelemetryOut = &tel
	runExp(t, c, "fig7", o2)
	if tel.Len() != 0 {
		t.Errorf("memoised rerun emitted %d bytes of telemetry, want none", tel.Len())
	}
}

// TestScalabilitySharesFig7Runs: fig11's 4-core runs are fig7's, so
// fig11 after fig7 in one campaign at -cores 4 simulates nothing new,
// and the stream
// both write begins one series per run, with no tag twice.
func TestScalabilitySharesFig7Runs(t *testing.T) {
	t.Parallel()
	c := NewCampaign()
	var tel bytes.Buffer
	o := tiny()
	o.CoreCounts = []int{4}
	o.Telemetry = "jsonl"
	o.TelemetryInterval = 2000
	o.TelemetryOut = &tel
	runExp(t, c, "fig7", o)
	runExp(t, c, "fig11", o)

	// ReadJSONL parses each run as its own series.
	series, err := telemetry.ReadJSONL(&tel)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sr := range series {
		if seen[sr.Meta.Tag] {
			t.Errorf("run %s simulated twice", sr.Meta.Tag)
		}
		seen[sr.Meta.Tag] = true
	}
	if want := len(o.Workloads) * len(o.Schemes); len(seen) != want {
		t.Errorf("fig7 then fig11 at 4 cores simulated %d distinct runs, want %d", len(seen), want)
	}
}
