// Command care-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	care-bench -list
//	care-bench -run fig7
//	care-bench -run all -scale 16 -measure 100000
//	care-bench -run fig7 -workloads 429.mcf,482.sphinx3 -schemes lru,care
//
// Each experiment prints the same rows/series the paper reports; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured comparisons.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"care/internal/faultinject"
	"care/internal/harness"
	"care/internal/policy"
	"care/internal/telemetry"
)

func main() {
	var (
		runIDs    = flag.String("run", "", "comma-separated experiment IDs, or \"all\"")
		list      = flag.Bool("list", false, "list available experiments")
		scale     = flag.Int("scale", 16, "cache scale divisor (1 = paper-size hierarchy)")
		measure   = flag.Uint64("measure", 100_000, "measured instructions per core")
		warmup    = flag.Uint64("warmup", 30_000, "warmup instructions per core")
		mixes     = flag.Int("mixes", 12, "number of 4-core mixed workloads (fig10; paper uses 100)")
		cores     = flag.String("cores", "4,8,16", "core counts for scalability experiments")
		workloads = flag.String("workloads", "", "restrict SPEC workloads (comma-separated)")
		schemes   = flag.String("schemes", "", "restrict compared schemes (comma-separated)")
		par       = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		csv       = flag.Bool("csv", false, "emit CSV tables instead of aligned text")
		maxCycles = flag.Uint64("max-cycles", 0, "abort any single simulation after this many cycles (0 = unlimited)")
		timeout   = flag.Duration("timeout", 0, "abort any single simulation after this much wall-clock time (0 = unlimited)")
		checkInv  = flag.Bool("check-invariants", false, "verify runtime invariants in every simulation")

		telFormat   = flag.String("telemetry", "", "record per-simulation interval telemetry in this format: "+strings.Join(telemetry.Formats(), ", ")+" (empty = off)")
		telInterval = flag.Uint64("telemetry-interval", telemetry.DefaultInterval, "telemetry sampling interval in cycles")
		telOut      = flag.String("telemetry-out", "", "telemetry output file (empty = care-bench-telemetry.<ext>, \"-\" = stdout); experiments append to one stream")

		perf         = flag.Bool("perf", false, "run the performance-regression suite (Fig.7/Fig.9 sweeps at 1/4/8 cores) instead of accuracy experiments")
		perfOut      = flag.String("perf-out", "", "write the perf report to this JSON file (default BENCH_8.json; \"-\" = stdout only)")
		perfBaseline = flag.String("perf-baseline", "", "compare the perf report against this baseline JSON; exit 1 on regression")
		perfTol      = flag.Float64("perf-tolerance", 0.10, "fractional ns/op regression tolerated against -perf-baseline")

		cacheMode      = flag.Bool("cache", false, "benchmark the care/cache library on service traffic (zipfian, scan-flood, key-churn) instead of running simulator experiments")
		cacheOps       = flag.Int("cache-ops", 2_000_000, "operations per policy×workload cell in -cache mode")
		cacheCapacity  = flag.Int("cache-capacity", 1<<16, "cache capacity (entries) in -cache mode")
		cacheWays      = flag.Int("cache-ways", 0, "set associativity in -cache mode (0 = default)")
		cacheShards    = flag.Int("cache-shards", 0, "shard count for the concurrent pass (0 = auto)")
		cacheConc      = flag.Int("cache-conc", 0, "goroutines for the concurrent pass (0 = GOMAXPROCS)")
		cacheSeed      = flag.Uint64("cache-seed", 1, "workload seed in -cache mode")
		cachePolicies  = flag.String("cache-policies", "", "policies to compare in -cache mode (comma-separated; default lru,srrip,ship++,care)")
		cacheWorkloads = flag.String("cache-workloads", "", "restrict -cache workloads (comma-separated; default all)")
		cacheOut       = flag.String("cache-out", "", "write the -cache JSON report to this file (empty = none)")

		retries   = flag.Int("retries", 0, "retry crashed/faulted simulations up to this many extra attempts, resuming from their last good checkpoint")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for per-simulation checkpoints (enables supervised runs)")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "measured instructions between checkpoints (0 = a quarter of -measure; requires -checkpoint-dir)")
		faults    = flag.String("faults", "", "deterministic fault-injection spec for every simulation (chaos testing), e.g. seed=1,kill-at=50000,ckpt-corrupt=1")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiments, -perf or -cache run to this file (inspect with go tool pprof)")
	)
	flag.Parse()

	faultCfg, err := validateFlags(*retries, *ckptDir, *ckptEvery, *faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "care-bench:", err)
		os.Exit(2)
	}

	if *cacheMode {
		opts := cacheBenchOptions{
			Ops: *cacheOps, Capacity: *cacheCapacity, Ways: *cacheWays,
			Shards: *cacheShards, Conc: *cacheConc, Seed: *cacheSeed,
			Report: *cacheOut, Out: os.Stdout,
		}
		if *cachePolicies != "" {
			for _, s := range strings.Split(*cachePolicies, ",") {
				// Same up-front typed validation as -schemes.
				p, err := policy.Parse(strings.TrimSpace(s))
				if err != nil {
					fmt.Fprintln(os.Stderr, "care-bench: -cache-policies:", err)
					os.Exit(2)
				}
				opts.Policies = append(opts.Policies, string(p))
			}
		}
		if *cacheWorkloads != "" {
			for _, w := range strings.Split(*cacheWorkloads, ",") {
				opts.Workloads = append(opts.Workloads, strings.TrimSpace(w))
			}
		}
		stopProfile := startCPUProfile(*cpuProfile)
		err := runCacheBench(opts)
		stopProfile()
		if err != nil {
			fmt.Fprintln(os.Stderr, "care-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *perf {
		stopProfile := startCPUProfile(*cpuProfile)
		err := runPerf(*perfOut, *perfBaseline, *perfTol, *schemes)
		stopProfile()
		if err != nil {
			fmt.Fprintln(os.Stderr, "care-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *list || *runIDs == "" {
		fmt.Println("Available experiments:")
		for _, e := range harness.All() {
			fmt.Printf("  %-7s %s\n", e.ID, e.Title)
		}
		if *runIDs == "" && !*list {
			fmt.Println("\nSelect with -run <id>[,<id>...] or -run all")
		}
		return
	}

	opts := harness.Options{
		Out:             os.Stdout,
		Scale:           *scale,
		Measure:         *measure,
		Warmup:          *warmup,
		Mixes:           *mixes,
		Parallelism:     *par,
		CSV:             *csv,
		MaxCycles:       *maxCycles,
		Timeout:         *timeout,
		CheckInvariants: *checkInv,
		MaxAttempts:     *retries + 1,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Faults:          faultCfg,
	}
	if *telFormat != "" {
		if !telemetry.ValidFormat(*telFormat) {
			fmt.Fprintf(os.Stderr, "care-bench: -telemetry %s: unknown format (have %s)\n",
				*telFormat, strings.Join(telemetry.Formats(), ", "))
			os.Exit(2)
		}
		opts.Telemetry = *telFormat
		opts.TelemetryInterval = *telInterval
		switch *telOut {
		case "-":
			opts.TelemetryOut = os.Stdout
		default:
			path := *telOut
			if path == "" {
				path = "care-bench-telemetry" + telemetry.Ext(*telFormat)
			}
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "care-bench:", err)
				os.Exit(2)
			}
			defer f.Close()
			opts.TelemetryOut = f
			fmt.Printf("telemetry: %s intervals every %d cycles -> %s\n\n", *telFormat, *telInterval, path)
		}
	}
	if *workloads != "" {
		opts.Workloads = strings.Split(*workloads, ",")
	}
	if *schemes != "" {
		// Typed validation up front: a misspelled scheme fails here
		// with the valid set listed, not hours into a campaign.
		for _, s := range strings.Split(*schemes, ",") {
			p, err := policy.Parse(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "care-bench: -schemes:", err)
				os.Exit(2)
			}
			opts.Schemes = append(opts.Schemes, string(p))
		}
	}
	for _, c := range strings.Split(*cores, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "care-bench: bad -cores entry %q\n", c)
			os.Exit(2)
		}
		opts.CoreCounts = append(opts.CoreCounts, n)
	}

	ids := strings.Split(*runIDs, ",")
	if *runIDs == "all" {
		ids = harness.IDs()
	}
	// Resolve every requested experiment before running any, so a typo
	// fails immediately instead of after hours of simulation.
	var exps []harness.Experiment
	for _, id := range ids {
		e, err := harness.Get(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, "care-bench:", err)
			os.Exit(2)
		}
		exps = append(exps, e)
	}

	// First SIGINT/SIGTERM winds the campaign down: in-flight
	// simulations finish (their results, telemetry, and the degradation
	// report still print), pending ones are skipped, supervised runs
	// stop retrying. A second signal aborts immediately.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "care-bench: stop requested — finishing in-flight simulations (interrupt again to abort)")
		harness.Interrupt()
		<-sig
		os.Exit(130)
	}()

	stopProfile := startCPUProfile(*cpuProfile)
	failed := false
	for _, e := range exps {
		if harness.Interrupted() {
			break
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		start := time.Now()
		if err := harness.Run(e.ID, opts); err != nil {
			fmt.Fprintf(os.Stderr, "care-bench: %s: %v\n", e.ID, err)
			// Degrade instead of aborting: the error above names every
			// failed run, and the remaining experiments still execute.
			failed = true
			continue
		}
		fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	stopProfile()
	if harness.Interrupted() {
		fmt.Fprintln(os.Stderr, "care-bench: interrupted — results above are partial")
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

// startCPUProfile starts profiling the CPU into path and returns the
// function that stops the profile and closes the file; with an empty
// path both are no-ops.
func startCPUProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "care-bench: -cpuprofile:", err)
		os.Exit(2)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "care-bench: -cpuprofile:", err)
		os.Exit(2)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "care-bench: -cpuprofile:", err)
		}
	}
}

// runPerf executes the performance-regression sweep, writes the
// report, and optionally compares it against a committed baseline.
func runPerf(outPath, baselinePath string, tol float64, schemes string) error {
	opts := harness.PerfOptions{Out: os.Stdout}
	if schemes != "" {
		for _, s := range strings.Split(schemes, ",") {
			p, err := policy.Parse(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("-schemes: %w", err)
			}
			opts.Schemes = append(opts.Schemes, string(p))
		}
	}
	report, err := harness.RunPerf(opts)
	if err != nil {
		return err
	}
	switch outPath {
	case "-":
	default:
		if outPath == "" {
			outPath = "BENCH_8.json"
		}
		if err := harness.WritePerfReport(outPath, report); err != nil {
			return err
		}
		fmt.Printf("perf report -> %s\n", outPath)
	}
	if baselinePath == "" {
		return nil
	}
	base, err := harness.LoadPerfReport(baselinePath)
	if err != nil {
		return err
	}
	violations, notes := harness.ComparePerf(report, base, tol)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "REGRESSION:", v)
		}
		return fmt.Errorf("%d performance regression(s) vs %s", len(violations), baselinePath)
	}
	fmt.Printf("perf: no regressions vs %s (tolerance %.0f%%)\n", baselinePath, 100*tol)
	return nil
}

// errFlagConflict tags invalid flag combinations so they fail at
// startup with exit status 2, never hours into a campaign.
var errFlagConflict = errors.New("invalid flag combination")

// validateFlags checks the supervision flag set up front and parses
// the fault spec.
func validateFlags(retries int, ckptDir string, ckptEvery uint64, faultSpec string) (*faultinject.Config, error) {
	if retries < 0 {
		return nil, fmt.Errorf("%w: -retries %d is negative", errFlagConflict, retries)
	}
	if ckptEvery > 0 && ckptDir == "" {
		return nil, fmt.Errorf("%w: -checkpoint-every requires -checkpoint-dir", errFlagConflict)
	}
	if ckptDir != "" {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, fmt.Errorf("%w: -checkpoint-dir: %v", errFlagConflict, err)
		}
	}
	if faultSpec == "" {
		return nil, nil
	}
	cfg, err := faultinject.ParseSpec(faultSpec)
	if err != nil {
		return nil, fmt.Errorf("%w: -faults: %v", errFlagConflict, err)
	}
	return &cfg, nil
}
