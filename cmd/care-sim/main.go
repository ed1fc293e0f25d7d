// Command care-sim runs one cache-hierarchy simulation and prints a
// detailed report: IPC, LLC behaviour, PMC statistics, DRAM traffic,
// and (for CARE) the policy's internal counters.
//
// Usage:
//
//	care-sim -workload 429.mcf -cores 4 -policy care -prefetch
//	care-sim -workload bfs-or -cores 4 -policy ship++
//	care-sim -list-workloads
//	care-sim -list-policies
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"

	"care/internal/core/care"
	"care/internal/faultinject"
	"care/internal/graph"
	"care/internal/harness"
	"care/internal/policy"
	"care/internal/sim"
	"care/internal/stats"
	"care/internal/synth"
	"care/internal/telemetry"
	"care/internal/trace"
)

func main() {
	var (
		traceFile     = flag.String("trace", "", "replay a binary trace file (care-trace format) instead of a named workload")
		workload      = flag.String("workload", "429.mcf", "SPEC workload name or GAP kernel-dataset (e.g. bfs-or)")
		cores         = flag.Int("cores", 4, "number of cores (multi-copy)")
		policyName    = flag.String("policy", "care", "LLC replacement policy")
		prefetch      = flag.Bool("prefetch", true, "enable L1 next-line + L2 IP-stride prefetchers")
		scale         = flag.Int("scale", 16, "cache scale divisor (1 = paper-size hierarchy)")
		instr         = flag.Uint64("instr", 200_000, "measured instructions per core")
		warmup        = flag.Uint64("warmup", 50_000, "warmup instructions per core")
		listWorkloads = flag.Bool("list-workloads", false, "list available workloads")
		listPolicies  = flag.Bool("list-policies", false, "list available policies")
		maxCycles     = flag.Uint64("max-cycles", 0, "abort after this many simulated cycles (0 = unlimited)")
		timeout       = flag.Duration("timeout", 0, "fail the run once this much wall-clock time has passed, e.g. 30s (0 = unlimited)")
		checkInv      = flag.Bool("check-invariants", false, "verify runtime invariants (cache accounting, EPV range, PMC conservation) during the run")
		faults        = flag.String("faults", "", "deterministic fault-injection spec, e.g. seed=1,dram-drop=200 (keys: seed, trace-corrupt, trace-flip, dram-drop, dram-delay, dram-delay-cycles, mshr-saturate, meta-flip, kill-at, ckpt-corrupt)")
		telFormat     = flag.String("telemetry", "", "record interval-resolved telemetry in this format: "+strings.Join(telemetry.Formats(), ", ")+" (empty = off)")
		telInterval   = flag.Uint64("telemetry-interval", telemetry.DefaultInterval, "telemetry sampling interval in cycles")
		telOutPath    = flag.String("telemetry-out", "", "telemetry output file (empty = care-sim-telemetry.<ext>, \"-\" = stdout)")
		ckptPath      = flag.String("checkpoint", "", "checkpoint file; the previous checkpoint rotates to <path>.1 before each write")
		ckptEvery     = flag.Uint64("checkpoint-every", 0, "write a checkpoint every N measured instructions (0 = a quarter of -instr; requires -checkpoint)")
		resume        = flag.Bool("resume", false, "resume from the -checkpoint file (falling back to <path>.1) instead of starting fresh")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the simulation run to this file (inspect with go tool pprof)")
	)
	flag.Parse()

	if err := validateFlags(*ckptPath, *ckptEvery, *resume); err != nil {
		fmt.Fprintln(os.Stderr, "care-sim:", err)
		os.Exit(2)
	}
	if *ckptPath != "" && *ckptEvery == 0 {
		*ckptEvery = *instr / 4
	}

	if *listWorkloads {
		fmt.Println("SPEC-like synthetic workloads:")
		for _, n := range synth.Names() {
			fmt.Println(" ", n)
		}
		fmt.Println("GAP workloads (kernel-dataset):")
		for _, k := range graph.Kernels() {
			for _, d := range graph.Datasets() {
				fmt.Printf("  %s-%s\n", k, d.Short)
			}
		}
		return
	}
	if *listPolicies {
		for _, n := range policy.All() {
			fmt.Println(" ", n)
		}
		return
	}

	// makeTraces returns freshly positioned readers over the same
	// deterministic streams every call, one set per resume attempt; a
	// restore reads their positions from the checkpoint.
	makeTraces := func() ([]trace.Reader, error) {
		if *traceFile != "" {
			return loadTraceFile(*traceFile, *cores)
		}
		spec := harness.RunSpec{
			Kind:       "spec",
			Workload:   *workload,
			Cores:      *cores,
			Scale:      *scale,
			GAPRecords: harness.DefaultGAPRecords,
		}
		// GAP workloads are named kernel-dataset, e.g. bfs-or.
		if kernel, _, ok := strings.Cut(*workload, "-"); ok && len(kernel) <= 4 {
			spec.Kind = "gap"
		}
		return spec.Traces()
	}
	if *traceFile != "" {
		*workload = *traceFile
	}

	// Typed policy validation up front: a bad -policy fails here with
	// the valid set listed, not deep inside simulator construction.
	pol, perr := policy.Parse(*policyName)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "care-sim:", perr)
		os.Exit(2)
	}

	cfg := sim.ScaledConfig(*cores, *scale)
	cfg.LLCPolicy = pol
	cfg.Prefetch = *prefetch
	cfg.MaxCycles = *maxCycles
	cfg.CheckInvariants = *checkInv
	if *faults != "" {
		fc, err := faultinject.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "care-sim:", err)
			os.Exit(2)
		}
		cfg.Faults = &fc
	}

	// Optional interval telemetry: one collector per attempt, tagged
	// with the workload/policy identity. The output is opened up front
	// (so a bad path fails before the run) and the series is written
	// once, when the run ends.
	var (
		telPath string
		telOut  io.Writer
		telFile *os.File
	)
	if *telFormat != "" {
		if !telemetry.ValidFormat(*telFormat) {
			fmt.Fprintf(os.Stderr, "care-sim: -telemetry %s: unknown format (have %s)\n",
				*telFormat, strings.Join(telemetry.Formats(), ", "))
			os.Exit(2)
		}
		telOut = os.Stdout
		if *telOutPath != "-" {
			telPath = *telOutPath
			if telPath == "" {
				telPath = "care-sim-telemetry" + telemetry.Ext(*telFormat)
			}
			f, err := os.Create(telPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "care-sim:", err)
				os.Exit(2)
			}
			telOut, telFile = f, f
		}
	}

	// A simulation failure (watchdog, cycle limit, -timeout deadline,
	// invariant violation, corrupt trace) carries its own diagnostic
	// dump; print it and exit nonzero so scripted runs notice.
	// SIGINT/SIGTERM request a clean stop: the run stops at its next
	// guard point, writes the telemetry series, prints the partial
	// summary, and exits nonzero. A stop writes no checkpoint, so
	// -resume continues from the last scheduled one.
	ctx := interruptContext()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	stopProfile := startCPUProfile(*cpuProfile)
	r, out, err := sim.Execute(ctx, sim.Job{
		// Each restore attempt gets a system over fresh traces and a
		// fresh collector.
		Build: func() (*sim.System, error) {
			traces, err := makeTraces()
			if err != nil {
				return nil, err
			}
			runCfg := cfg
			if telOut != nil {
				runCfg.Telemetry = telemetry.NewCollector(telemetry.Options{
					Interval: *telInterval,
					Tag:      fmt.Sprintf("%s/%s/c%d", *workload, pol, *cores),
				})
			}
			return sim.New(runCfg, traces)
		},
		Warmup:     *warmup,
		Measure:    *instr,
		Checkpoint: sim.CheckpointOptions{Path: *ckptPath, Every: *ckptEvery},
		Resume:     *resume,
	})
	stopProfile()
	for i, sk := range out.Skipped {
		next := out.From
		if i+1 < len(out.Skipped) {
			next = out.Skipped[i+1].Path
		}
		if next == "" {
			break
		}
		fmt.Fprintf(os.Stderr, "care-sim: checkpoint %s unusable (%v), trying %s\n",
			sk.Path, firstLine(sk.Err), next)
	}
	s := out.System
	if s == nil {
		fmt.Fprintln(os.Stderr, "care-sim:", err)
		os.Exit(2)
	}
	// The series is written whether the run completed, failed or was
	// interrupted: a partial series helps explain a failure.
	col := s.Telemetry()
	var series []telemetry.Interval
	if col != nil {
		series = col.Series()
		werr := telemetry.Write(telOut, *telFormat, []telemetry.Series{{Meta: col.Meta(), Intervals: series}})
		if telFile != nil {
			werr = errors.Join(werr, telFile.Close())
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "care-sim: telemetry:", werr)
			os.Exit(1)
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		failSim(fmt.Errorf("-timeout %s passed: %w", *timeout, err))
	}
	interrupted := errors.Is(err, sim.ErrInterrupted)
	if err != nil && !interrupted {
		failSim(err)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "care-sim: interrupted — partial results follow")
		if *ckptPath != "" {
			reportResumePoint(*ckptPath)
		}
	}

	fmt.Printf("workload=%s cores=%d policy=%s prefetch=%v scale=%d\n",
		*workload, *cores, pol, *prefetch, *scale)
	fmt.Printf("cycles: %d\n", r.Cycles)
	if col != nil {
		dest := telPath
		if dest == "" {
			dest = "stdout"
		}
		fmt.Printf("telemetry: %d intervals (%d-cycle) -> %s\n", len(telemetry.Measured(series)), col.Interval(), dest)
	}
	fmt.Println()

	t := stats.NewTable("core", "instructions", "IPC", "AOCPA")
	for i := range r.CoreIPC {
		t.AddRow(i, r.CoreInstructions[i], fmt.Sprintf("%.4f", r.CoreIPC[i]), fmt.Sprintf("%.2f", r.AOCPA[i]))
	}
	fmt.Print(t.String())
	fmt.Printf("aggregate IPC: %.4f\n\n", r.IPCSum())

	llc := r.LLC
	fmt.Println("LLC:")
	fmt.Printf("  demand: %d accesses, %d hits, %d misses (miss rate %.4f)\n",
		llc.DemandAccesses, llc.DemandHits, llc.DemandMisses,
		float64(llc.DemandMisses)/nz(llc.DemandAccesses))
	fmt.Printf("  prefetch: %d accesses, %d misses, %d dropped\n",
		llc.PrefetchAccesses, llc.PrefetchMisses, llc.PrefetchesDropped)
	fmt.Printf("  writebacks in: %d, out: %d\n", llc.WritebackAccesses, llc.WritebacksIssued)
	fmt.Printf("  pure misses: %d (pMR %.4f)\n", llc.PureMisses, r.LLCPMR)
	fmt.Printf("  hit-miss overlapped misses: %d (%.1f%% of misses)\n",
		llc.HitOverlapMisses, 100*float64(llc.HitOverlapMisses)/nz(llc.Misses()))
	fmt.Printf("  mean PMC per miss: %.2f cycles\n", r.MeanPMC)
	var mpki float64
	var totalInstr uint64
	for _, n := range r.CoreInstructions {
		totalInstr += n
	}
	mpki = stats.MPKI(llc.DemandMisses, totalInstr)
	fmt.Printf("  demand MPKI: %.2f\n\n", mpki)

	fmt.Println("DRAM:")
	fmt.Printf("  reads: %d, writes: %d\n", r.DRAM.Reads, r.DRAM.Writes)
	fmt.Printf("  row hits: %d, row misses: %d\n", r.DRAM.RowHits, r.DRAM.RowMisses)
	fmt.Printf("  mean read latency: %.1f cycles\n", r.DRAM.MeanReadLatency())

	if cs := s.CAREStats(); cs != nil {
		pol := s.LLC().Policy().(*care.Policy)
		low, high := pol.Thresholds()
		fmt.Println("\nCARE:")
		fmt.Printf("  insertions: high-reuse=%d low-reuse=%d moderate=%d (high-cost=%d low-cost=%d) writeback=%d\n",
			cs.InsertHighReuse, cs.InsertLowReuse, cs.InsertModerate,
			cs.InsertHighCost, cs.InsertLowCost, cs.InsertWriteback)
		fmt.Printf("  DTRM: thresholds low=%.0f high=%.0f, raises=%d lowers=%d, costly misses=%d\n",
			low, high, cs.DTRMRaises, cs.DTRMLowers, cs.CostlyMisses)
	}
	if interrupted {
		os.Exit(1)
	}
}

// errFlagConflict types the up-front flag-combination failures so
// scripts (and tests) can match them instead of parsing messages.
var errFlagConflict = errors.New("invalid flag combination")

// validateFlags rejects inconsistent checkpoint flag combinations
// before any simulation work starts.
func validateFlags(ckptPath string, ckptEvery uint64, resume bool) error {
	if ckptEvery > 0 && ckptPath == "" {
		return fmt.Errorf("%w: -checkpoint-every requires -checkpoint", errFlagConflict)
	}
	if resume && ckptPath == "" {
		return fmt.Errorf("%w: -resume requires -checkpoint", errFlagConflict)
	}
	if resume {
		if _, err := os.Stat(ckptPath); err != nil {
			if _, rerr := os.Stat(sim.RotatedPath(ckptPath)); rerr != nil {
				return fmt.Errorf("%w: -resume: no checkpoint at %s (or %s): %w",
					errFlagConflict, ckptPath, sim.RotatedPath(ckptPath), err)
			}
		}
	}
	return nil
}

// firstLine trims multi-line errors (diagnostic dumps) for stderr.
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// reportResumePoint names the scheduled checkpoint -resume would
// continue from after a stop.
func reportResumePoint(path string) {
	for _, p := range []string{path, sim.RotatedPath(path)} {
		if _, err := os.Stat(p); err == nil {
			fmt.Fprintf(os.Stderr, "care-sim: -resume continues from the scheduled checkpoint %s\n", p)
			return
		}
	}
	fmt.Fprintln(os.Stderr, "care-sim: no scheduled checkpoint written yet; -resume has nothing to continue from")
}

// interruptContext returns a context the first SIGINT/SIGTERM
// cancels, stopping the run cleanly; a second signal aborts
// immediately.
func interruptContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "care-sim: stop requested (interrupt again to abort)")
		cancel()
		<-sigc
		os.Exit(130)
	}()
	return ctx
}

// loadTraceFile materialises a binary trace and hands each core a
// desynchronised, address-shifted copy (multi-copy replay).
func loadTraceFile(path string, cores int) ([]trace.Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := trace.Read(f)
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("trace %s is empty", path)
	}
	return trace.Copies(records, cores), nil
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
		fmt.Fprintln(os.Stderr, "care-sim: -cpuprofile:", err)
		os.Exit(2)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "care-sim: -cpuprofile:", err)
		os.Exit(2)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "care-sim: -cpuprofile:", err)
		}
	}
}

// failSim reports a failed simulation (the error embeds the
// diagnostic dump for sim failures) and exits nonzero.
func failSim(err error) {
	fmt.Fprintln(os.Stderr, "care-sim: simulation failed:", err)
	os.Exit(1)
}

func nz(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}
