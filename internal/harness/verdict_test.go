package harness

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// verdictSeeds is how many trace seed sets each verdict test checks:
// the default streams first, then base seeds 7919, 2·7919, ... (for
// GAP, the source vertex). The default run alone is the pin; the
// worst margins in the test comments were measured with
//
//	go test ./internal/harness -run Verdict -verdict-seeds 5 -v
var verdictSeeds = flag.Int("verdict-seeds", 1, "trace seed sets each verdict test checks")

// forSeeds runs check on o at every verdict seed.
func forSeeds(t *testing.T, o Options, check func(t *testing.T, o Options)) {
	for s := 0; s < *verdictSeeds; s++ {
		o := o
		o.traceSeed = uint64(s) * 7919
		t.Run(fmt.Sprintf("seed%d", o.traceSeed), func(t *testing.T) { check(t, o) })
	}
}

// csvRows parses an experiment's CSV table into its header and its
// rows, keyed by their first cell; lines that are not table rows
// (fig10's "best for" summary) are skipped.
func csvRows(t *testing.T, out string) ([]string, map[string][]float64) {
	t.Helper()
	var header []string
	rows := map[string][]float64{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		cells := strings.Split(line, ",")
		if len(cells) < 2 {
			continue
		}
		if header == nil {
			header = cells
			continue
		}
		vals := make([]float64, len(cells)-1)
		for i, c := range cells[1:] {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				t.Fatalf("cell %q of row %s: %v\n%s", c, cells[0], err, out)
			}
			vals[i] = v
		}
		rows[cells[0]] = vals
	}
	if header == nil {
		t.Fatalf("no CSV table in:\n%s", out)
	}
	return header, rows
}

// row returns the named row as a map from column name to value.
func row(t *testing.T, out, name string) map[string]float64 {
	t.Helper()
	header, rows := csvRows(t, out)
	vals, ok := rows[name]
	if !ok || len(vals) != len(header)-1 {
		t.Fatalf("no %s row matching the header %v:\n%s", name, header, out)
	}
	m := map[string]float64{}
	for i, col := range header[1:] {
		m[col] = vals[i]
	}
	return m
}

// fig9ShipMargin bounds how far SHiP++ may lead CARE on GAP.
const fig9ShipMargin = 0.03

// TestFig9Verdict pins Figure 9's verdict on the 15 GAP workloads
// (4-core, prefetching): CARE's geomean IPC beats LRU, and SHiP++,
// which edges CARE here as EXPERIMENTS.md records, leads it by less
// than fig9ShipMargin. At scale 32 with a 5k warmup and 10k measured
// instructions CARE loses to LRU (0.999), so this uses 20k and 50k.
// Default seeds: CARE 1.0431, SHiP++ 1.0608 (1.8 points ahead). Over
// five seed sets CARE's smallest lead over LRU was 4.1 points (seed
// 23757) and SHiP++'s widest lead over CARE 2.0 points (seed 15838).
func TestFig9Verdict(t *testing.T) {
	t.Parallel()
	o := Options{
		Scale: 32, Warmup: 20_000, Measure: 50_000,
		Schemes: []string{"lru", "ship++", "care"}, CSV: true,
	}
	forSeeds(t, o, func(t *testing.T, o Options) {
		gm := row(t, runExp(t, NewCampaign(), "fig9", o), "GEOMEAN")
		t.Logf("fig9 GEOMEAN %v", gm)
		if gm["care"] <= 1 {
			t.Errorf("CARE's GAP geomean %.4f does not beat LRU", gm["care"])
		}
		if d := gm["ship++"] - gm["care"]; d >= fig9ShipMargin {
			t.Errorf("SHiP++ leads CARE by %.4f on GAP, want < %.2f: %v", d, fig9ShipMargin, gm)
		}
	})
}

// TestFig10Verdict pins Figure 10's verdict: over 4-core mixed
// workloads with prefetching, the CARE family (CARE or M-CARE) has the
// best geomean weighted speedup of all schemes. Six mixes at scale 32
// with a 5k warmup and 10k measured instructions. Default seeds:
// M-CARE 1.0667, CARE 1.0606, best other SHiP++ 1.0207 (4.6 points);
// the narrowest lead over five seed sets was 2.9 points (seed 15838:
// M-CARE 1.0603, SHiP++ 1.0309).
func TestFig10Verdict(t *testing.T) {
	t.Parallel()
	o := Options{Scale: 32, Warmup: 5_000, Measure: 10_000, Mixes: 6, CSV: true}
	forSeeds(t, o, func(t *testing.T, o Options) {
		gm := row(t, runExp(t, NewCampaign(), "fig10", o), "GEOMEAN")
		t.Logf("fig10 GEOMEAN %v", gm)
		family := max(gm["care"], gm["m-care"])
		for scheme, v := range gm {
			if scheme != "care" && scheme != "m-care" && v >= family {
				t.Errorf("%s's geomean %.4f is not below the CARE family's %.4f: %v", scheme, v, family, gm)
			}
		}
	})
}

// TestScalabilityVerdict pins Figure 11's and Table XI's verdicts on
// the scalability subset (prefetching): from 4 to 8 cores, CARE's
// geomean speedup over LRU grows, and so does the mean AOCPA. Scale
// 32, 5k warmup and 10k measured instructions; tab11's runs are
// fig11's LRU column. Default seeds: CARE 1.0845 at 4 cores, 1.1139 at
// 8 (+2.9 points); AOCPA 624.52 and 1012.71. Over five seed sets the
// smallest gain growth was 2.4 points (seed 7919: 1.0804 to 1.1039)
// and the smallest AOCPA growth 363 (seed 31676: 594.21 to 957.02).
func TestScalabilityVerdict(t *testing.T) {
	t.Parallel()
	o := Options{
		Scale: 32, Warmup: 5_000, Measure: 10_000, CoreCounts: []int{4, 8},
		Schemes: []string{"lru", "care"}, CSV: true,
	}
	forSeeds(t, o, func(t *testing.T, o Options) {
		c := NewCampaign()
		out := runExp(t, c, "fig11", o)
		four, eight := row(t, out, "4")["care"], row(t, out, "8")["care"]
		t.Logf("fig11 CARE over LRU: %.4f at 4 cores, %.4f at 8", four, eight)
		if eight <= four {
			t.Errorf("CARE's gain over LRU does not grow with cores: %.4f at 4, %.4f at 8", four, eight)
		}
		out = runExp(t, c, "tab11", o)
		four, eight = row(t, out, "4")["AOCPA (SPEC mean)"], row(t, out, "8")["AOCPA (SPEC mean)"]
		t.Logf("tab11 AOCPA: %.2f at 4 cores, %.2f at 8", four, eight)
		if eight <= four {
			t.Errorf("AOCPA does not grow with cores: %.2f at 4, %.2f at 8", four, eight)
		}
	})
}
