// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator (internal/sim), the campaign fleet (internal/server and
// internal/worker) and the care/cache library from outside, through
// their public functions, checks that their outputs are correct, and
// prints one JSON result line. See README.md for the workloads and the
// metrics.
//
//	perfbench -workload sim-mcf -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// params are one run's inputs.
type params struct {
	// seed makes every generated input; equal seeds give equal inputs.
	seed uint64
	// seconds is how long the timed phase runs (it always completes
	// its minimum deterministic work, however long that takes).
	seconds float64
	// traced selects the per-layer metrics instead of the end-to-end
	// ones.
	traced bool
	// workDir is scratch space for files the programs under test write.
	workDir string
	// tiny shrinks every size for the self-test.
	tiny bool
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median, and the last set-up feeds the timed phase.
const setupRuns = 5

// setups is how many times this run sets up. Traced runs report no
// setup_s and tiny runs only check that metrics are emitted, so each
// sets up once.
func (p params) setups() int {
	if p.traced || p.tiny {
		return 1
	}
	return setupRuns
}

// report is what one workload run measured.
type report struct {
	attempted, failed int64
	// problems lists every failed correctness check.
	problems []string
	// metrics holds the end-to-end metrics (untraced runs) or the
	// per-layer metrics (traced runs), by name.
	metrics map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload: run measures it untraced (the
// end-to-end metrics) or traced (the per-layer metrics).
type workload struct {
	name string
	why  string
	run  func(p params) (*report, error)
}

func workloads() []workload {
	return []workload{
		{"sim-mcf", "memory-bound 4-core simulation: cycle loop, LLC MSHRs, CARE and DRAM", func(p params) (*report, error) {
			return runSim(simMCF, p)
		}},
		{"sim-bzip2", "compute-bound 4-core simulation: core dispatch/retire, L1 and trace generation", func(p params) (*report, error) {
			return runSim(simBzip2, p)
		}},
		{"campaign", "a sweep through care-server and care-worker: journal, claim, SSE and worker paths", runCampaign},
		{"cache-zipf", "read-heavy zipf traffic on the sharded CARE cache: the Get hit path", func(p params) (*report, error) {
			return runCache(cacheZipf, p)
		}},
		{"cache-scan", "write-heavy scan-flood traffic on the same cache: PutCost and victim choice", func(p params) (*report, error) {
			return runCache(cacheScan, p)
		}},
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced runs; every workload reports
// every one of them (README.md defines each per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"hit_ratio", "ratio"},
	{"mem_mb", "MB"},
}

// perLayer are the metrics of traced runs, named by layer. A layer a
// workload does not run reports 0.
var perLayer = []metricDef{
	{"sim.cycles", "count"},
	{"sim.no_retire_frac", "ratio"},
	{"sim.host_ns_per_cycle", "ns"},
	{"sim.build_s", "s"},
	{"sim.warmup_s", "s"},
	{"sim.measure_s", "s"},
	{"synth.records", "count"},
	{"synth.ns_per_record", "ns"},
	{"cpu.retired", "count"},
	{"cpu.ipc", "ratio"},
	{"cpu.rob_stall_frac", "ratio"},
	{"llc.accesses", "count"},
	{"llc.miss_ratio", "ratio"},
	{"llc.mshr_merges", "count"},
	{"llc.mshr_stall_cycles", "count"},
	{"care.dtrm_adjusts", "count"},
	{"care.insert_low_reuse", "count"},
	{"dram.reads", "count"},
	{"dram.row_hit_ratio", "ratio"},
	{"dram.read_latency_cycles", "cycles"},
	{"dram.access_ns", "ns"},
	{"api.submit_ms", "ms"},
	{"api.claim_ms", "ms"},
	{"api.claim_empty", "count"},
	{"api.complete_ms", "ms"},
	{"api.heartbeats", "count"},
	{"api.artifact_bytes", "bytes"},
	{"queue.wait_ms_p50", "ms"},
	{"journal.append_us", "us"},
	{"sse.events", "count"},
	{"sse.lag_ms", "ms"},
	{"worker.hold_ms_p50", "ms"},
	{"worker.overhead_ms", "ms"},
	{"cache.get_ns", "ns"},
	{"cache.put_ns", "ns"},
	{"cache.contention_frac", "ratio"},
	{"cache.puts", "count"},
	{"cache.evictions", "count"},
	{"tracing.overhead_frac", "ratio"},
	{"host.ref_ms", "ms"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultOf renders a report as the result line, emitting every metric
// of the selected list with its unit.
func resultOf(r *report, traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: r.metrics[d.name], Unit: d.unit}
	}
	return out
}

// host identifies the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostInfo() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs one workload and prints the result; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workDir := fs.String("workdir", ".bench_build/work", "scratch directory for files the programs write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
		if w.name == *name {
			w := w
			wl = &w
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	if dir, err = filepath.Abs(dir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	traced := *trace == 1
	stamp, _ := json.Marshal(map[string]any{
		"host": hostInfo(), "workload": wl.name, "seed": *seed, "seconds": *seconds, "trace": traced,
	})
	fmt.Fprintf(stdout, "%s\n", stamp)
	rep, err := wl.run(params{seed: *seed, seconds: *seconds, traced: traced, workDir: dir})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: %s: correctness: %s\n", wl.name, p)
	}
	res := resultOf(rep, traced)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// ---- statistics ----

// quantile returns the q-quantile of xs (linear interpolation between
// order statistics); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMB forces a collection and returns the live heap in MiB. The
// second collection empties the sync.Pool victim caches the first one
// leaves behind.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// overheadFrac is the share of throughput tracing cost.
func overheadFrac(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return (untraced - traced) / untraced
}
