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
	"context"
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
		timeout   = flag.Duration("timeout", 0, "wall-clock deadline of each simulation attempt; a timed-out attempt fails and is retried like any other (0 = unlimited)")
		checkInv  = flag.Bool("check-invariants", false, "verify runtime invariants in every simulation")

		telFormat   = flag.String("telemetry", "", "record per-simulation interval telemetry in this format: "+strings.Join(telemetry.Formats(), ", ")+" (empty = off)")
		telInterval = flag.Uint64("telemetry-interval", telemetry.DefaultInterval, "telemetry sampling interval in cycles")
		telOut      = flag.String("telemetry-out", "", "telemetry output file (empty = care-bench-telemetry.<ext>, \"-\" = stdout); experiments append to one stream")

		retries   = flag.Int("retries", 0, "retry crashed/faulted simulations up to this many extra attempts, resuming from their last good checkpoint")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for per-simulation checkpoints (enables supervised runs)")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "measured instructions between checkpoints (0 = a quarter of -measure; requires -checkpoint-dir)")
		faults    = flag.String("faults", "", "deterministic fault-injection spec for every simulation (chaos testing), e.g. seed=1,kill-at=50000,ckpt-corrupt=1")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiments to this file (inspect with go tool pprof)")
	)
	flag.Parse()

	faultCfg, err := validateFlags(*retries, *ckptDir, *ckptEvery, *faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "care-bench:", err)
		os.Exit(2)
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

	// First SIGINT/SIGTERM cancels the campaign's context: in-flight
	// simulations finish (their results, telemetry, and the degradation
	// report still print), pending ones are skipped, supervised runs
	// stop retrying. A second signal aborts immediately.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "care-bench: stop requested — finishing in-flight simulations (interrupt again to abort)")
		stop()
		<-sig
		os.Exit(130)
	}()

	// One campaign runs every experiment, so those that read the same
	// simulations (fig7, fig8 and tab10; fig7 and fig11) share them.
	campaign := harness.NewCampaign()
	stopProfile := startCPUProfile(*cpuProfile)
	failed := false
	for _, e := range exps {
		if ctx.Err() != nil {
			break
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		start := time.Now()
		if err := campaign.Run(ctx, e.ID, opts); err != nil {
			fmt.Fprintf(os.Stderr, "care-bench: %s: %v\n", e.ID, err)
			// Degrade instead of aborting: the error above names every
			// failed run, and the remaining experiments still execute.
			failed = true
			continue
		}
		fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	stopProfile()
	if ctx.Err() != nil {
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
