package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"

	"care/internal/policy"
	"care/internal/sim"
)

// The performance-regression suite (`care-bench -perf`) times the
// simulator itself — wall-clock per simulation, heap allocations per
// simulation, and simulated cycles per second — over a fixed sweep of
// the paper's two headline figures (Fig. 7 SPEC and Fig. 9 GAP) at
// 1/4/8 cores. The sweep parameters are pinned by Defaults so two
// invocations on the same machine measure the same work and a
// committed BENCH_8.json stays comparable across commits.

// PerfSchema versions the BENCH_8.json layout. Schema 2 added the
// aggregate core_cycles_per_sec column (schema 1 reported only
// sim_cycles_per_sec, which hides per-core throughput: a c8
// simulation does eight cores of work per simulated cycle, so
// comparing raw sim-cycles/sec across core counts understated
// multi-core configurations by the core count).
const PerfSchema = 2

// PerfOptions tunes the suite. Zero fields are completed by
// Defaults; overriding them produces reports that are NOT comparable
// to baselines recorded with the defaults, so ComparePerf checks the
// parameters too.
type PerfOptions struct {
	// Out receives progress lines (nil = io.Discard).
	Out io.Writer
	// Scale divides the cache hierarchy as in Options.Scale.
	Scale int
	// Warmup and Measure are per-core instruction budgets for each
	// timed simulation. The perf defaults are deliberately smaller
	// than the accuracy harness's: each benchmark iteration runs a
	// whole simulation, and testing.Benchmark needs several
	// iterations for a stable ns/op.
	Warmup, Measure uint64
	// Schemes are the timed LLC policies.
	Schemes []string
	// CoreCounts is the sweep's core axis.
	CoreCounts []int
	// GAPRecords caps the Fig. 9 kernel trace.
	GAPRecords int
}

// Defaults pins the reproducible sweep.
func (o *PerfOptions) Defaults() {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Scale <= 0 {
		o.Scale = 16
	}
	if o.Warmup == 0 {
		o.Warmup = 5_000
	}
	if o.Measure == 0 {
		o.Measure = 20_000
	}
	if len(o.Schemes) == 0 {
		o.Schemes = []string{"lru", "ship++", "care"}
	}
	if len(o.CoreCounts) == 0 {
		o.CoreCounts = []int{1, 4, 8}
	}
	if o.GAPRecords <= 0 {
		o.GAPRecords = 250_000
	}
}

// PerfParams records the sweep parameters inside the report so a
// comparison against a baseline measured with different work fails
// loudly instead of producing a nonsense verdict.
type PerfParams struct {
	Scale      int    `json:"scale"`
	Warmup     uint64 `json:"warmup"`
	Measure    uint64 `json:"measure"`
	GAPRecords int    `json:"gap_records"`
}

// PerfRecord is one timed configuration.
type PerfRecord struct {
	// Name is "fig7/429.mcf/lru/c4"-style: figure/workload/scheme/cores.
	Name string `json:"name"`
	// NsPerOp is wall-clock nanoseconds per complete simulation
	// (trace construction + system build + warmup + measure).
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per complete simulation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per complete simulation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// SimCyclesPerSec is simulated cycles per wall-clock second.
	// It is NOT normalized by core count: a c8 simulation advances
	// eight cores per cycle, so raw sim-cycles/sec makes multi-core
	// configurations look slower than they are. Kept for continuity;
	// compare throughput across core counts with CoreCyclesPerSec.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	// CoreCyclesPerSec is the aggregate throughput figure of merit:
	// simulated core-cycles (cycles × cores) per wall-clock second.
	CoreCyclesPerSec float64 `json:"core_cycles_per_sec"`
	// Iterations is how many simulations the final timing loop ran.
	Iterations int `json:"iterations"`
}

// PerfReport is the BENCH_8.json document.
type PerfReport struct {
	Schema     int          `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	Params     PerfParams   `json:"params"`
	Benchmarks []PerfRecord `json:"benchmarks"`
}

// perfSweep enumerates the timed run keys, one figure per trace kind.
func perfSweep(o *PerfOptions) []runKey {
	var keys []runKey
	for _, wl := range []struct{ kind, workload string }{
		{"spec", "429.mcf"}, // Fig. 7 representative
		{"gap", "bfs-or"},   // Fig. 9 representative
	} {
		for _, cores := range o.CoreCounts {
			for _, s := range o.Schemes {
				keys = append(keys, runKey{
					kind: wl.kind, workload: wl.workload, scheme: s,
					cores: cores, prefetch: true, scale: o.Scale,
					warmup: o.Warmup, measure: o.Measure, gapRecs: o.GAPRecords,
				})
			}
		}
	}
	return keys
}

// perfName labels a sweep entry; the figure name keys comparisons.
func perfName(k runKey) string {
	fig := "fig7"
	if k.kind == "gap" {
		fig = "fig9"
	}
	return fmt.Sprintf("%s/%s/%s/c%d", fig, k.workload, k.scheme, k.cores)
}

// RunPerf executes the sweep and returns the report. Every scheme
// name must parse; unknown names fail before any timing runs.
func RunPerf(o PerfOptions) (PerfReport, error) {
	o.Defaults()
	for _, s := range o.Schemes {
		if _, err := policy.Parse(s); err != nil {
			return PerfReport{}, err
		}
	}
	report := PerfReport{
		Schema:    PerfSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Params: PerfParams{
			Scale: o.Scale, Warmup: o.Warmup, Measure: o.Measure,
			GAPRecords: o.GAPRecords,
		},
	}
	for _, key := range perfSweep(&o) {
		rec, err := timeOne(key)
		if err != nil {
			return PerfReport{}, fmt.Errorf("%s: %w", perfName(key), err)
		}
		fmt.Fprintf(o.Out, "%-36s %12d ns/op %8d allocs/op %14.0f core-cycles/sec\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.CoreCyclesPerSec)
		report.Benchmarks = append(report.Benchmarks, rec)
	}
	return report, nil
}

// perfRepeats is how many independent timing runs each configuration
// gets; the fastest is reported. Scheduler and cache interference
// only ever slow a run down, so the minimum is the stable,
// comparison-worthy estimate — single runs wobble ±15% back to back
// on small shared runners, which would make the 10% CI gate flaky.
const perfRepeats = 5

// timeOne benchmarks a single configuration with the testing
// package's calibration loop (so short runs still get enough
// iterations for a stable ns/op), keeping the fastest of
// perfRepeats runs.
func timeOne(key runKey) (PerfRecord, error) {
	// Fail fast (and outside the timing loop) on broken workloads;
	// this also pre-generates and caches the GAP kernel trace so
	// generation cost isn't attributed to the first iteration.
	if _, err := buildTraces(key); err != nil {
		return PerfRecord{}, err
	}
	best := PerfRecord{Name: perfName(key)}
	for rep := 0; rep < perfRepeats; rep++ {
		rec, err := timeRun(key)
		if err != nil {
			return PerfRecord{}, err
		}
		if rep == 0 || rec.NsPerOp < best.NsPerOp {
			rec.Name = best.Name
			best = rec
		}
	}
	return best, nil
}

// timeRun is one calibrated timing run.
func timeRun(key runKey) (PerfRecord, error) {
	var simErr error
	var cycles uint64
	res := testing.Benchmark(func(b *testing.B) {
		cycles = 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			traces, err := buildTraces(key)
			if err != nil {
				simErr = err
				b.FailNow()
			}
			cfg := sim.ScaledConfig(key.cores, key.scale)
			cfg.LLCPolicy = policy.Policy(key.scheme)
			cfg.Prefetch = key.prefetch
			r, err := runPlain(cfg, traces, key.warmup, key.measure)
			if err != nil {
				simErr = err
				b.FailNow()
			}
			cycles += r.Cycles
		}
	})
	if simErr != nil {
		return PerfRecord{}, simErr
	}
	rec := PerfRecord{
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Iterations:  res.N,
	}
	if sec := res.T.Seconds(); sec > 0 {
		rec.SimCyclesPerSec = float64(cycles) / sec
		rec.CoreCyclesPerSec = rec.SimCyclesPerSec * float64(key.cores)
	}
	return rec, nil
}

// WritePerfReport writes the report as indented JSON.
func WritePerfReport(path string, r PerfReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadPerfReport reads a report written by WritePerfReport.
func LoadPerfReport(path string) (PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return PerfReport{}, err
	}
	var r PerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return PerfReport{}, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != PerfSchema {
		return PerfReport{}, fmt.Errorf("%s: schema %d, want %d", path, r.Schema, PerfSchema)
	}
	return r, nil
}

// ComparePerf checks the current report against a baseline. It
// returns one line per violation: a ns/op regression beyond tol
// (fractional, e.g. 0.10), or an allocs/op increase beyond tol plus a
// two-object jitter allowance (allocation counts are deterministic,
// so even small growth is a real change). Entries present in only one
// report and improvements are reported via notes, which are
// informational only.
func ComparePerf(cur, base PerfReport, tol float64) (violations, notes []string) {
	if cur.Params != base.Params {
		violations = append(violations,
			fmt.Sprintf("sweep parameters differ: current %+v vs baseline %+v — reports are not comparable",
				cur.Params, base.Params))
		return violations, nil
	}
	baseByName := map[string]PerfRecord{}
	for _, r := range base.Benchmarks {
		baseByName[r.Name] = r
	}
	seen := map[string]bool{}
	for _, c := range cur.Benchmarks {
		seen[c.Name] = true
		b, ok := baseByName[c.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: new benchmark (no baseline entry)", c.Name))
			continue
		}
		if limit := float64(b.NsPerOp) * (1 + tol); float64(c.NsPerOp) > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: ns/op regressed %.1f%% (%d -> %d, tolerance %.0f%%)",
				c.Name, 100*(float64(c.NsPerOp)/float64(b.NsPerOp)-1), b.NsPerOp, c.NsPerOp, 100*tol))
		}
		if limit := float64(b.AllocsPerOp)*(1+tol) + 2; float64(c.AllocsPerOp) > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op regressed (%d -> %d, tolerance %.0f%%+2)",
				c.Name, b.AllocsPerOp, c.AllocsPerOp, 100*tol))
		}
		if float64(c.NsPerOp) < float64(b.NsPerOp)*(1-tol) {
			notes = append(notes, fmt.Sprintf("%s: ns/op improved %.1f%% (%d -> %d)",
				c.Name, 100*(1-float64(c.NsPerOp)/float64(b.NsPerOp)), b.NsPerOp, c.NsPerOp))
		}
	}
	for name := range baseByName {
		if !seen[name] {
			notes = append(notes, fmt.Sprintf("%s: baseline entry missing from current run", name))
		}
	}
	sort.Strings(violations)
	sort.Strings(notes)
	return violations, notes
}
