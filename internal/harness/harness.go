// Package harness defines one named, runnable experiment per table
// and figure of the paper's evaluation (the index in DESIGN.md §4),
// listed in one table sorted by ID. Experiments run through a
// Campaign, which memoises the simulations they share; its context
// stops it. cmd/care-bench and bench_test.go drive these; each
// experiment prints the same rows/series the paper reports.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	careplc "care/internal/core/care"
	"care/internal/faultinject"
	"care/internal/graph"
	"care/internal/policy"
	"care/internal/sim"
	"care/internal/stats"
	"care/internal/synth"
	"care/internal/telemetry"
	"care/internal/trace"
)

// DefaultGAPRecords is the GAP kernel trace length every entry point
// replays unless told otherwise: experiments, care-server jobs and
// care-sim.
const DefaultGAPRecords = 250_000

// Options tunes every experiment. The zero value is completed by
// Defaults.
type Options struct {
	// Out receives the experiment's report.
	Out io.Writer
	// Scale divides every cache (and synthetic footprint) by this
	// factor so the evaluation runs in minutes; 1 = the paper's
	// full-size hierarchy.
	Scale int
	// Warmup and Measure are per-core instruction budgets.
	Warmup, Measure uint64
	// Workloads restricts SPEC experiments (nil = experiment default).
	Workloads []string
	// Schemes restricts the compared policies (nil = default set).
	Schemes []string
	// CoreCounts for the scalability experiments.
	CoreCounts []int
	// Mixes is the number of 4-core mixed workloads for fig10 (the
	// paper uses 100).
	Mixes int
	// GAPRecords caps each GAP kernel trace (0 = DefaultGAPRecords).
	GAPRecords int
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// CSV switches table output from aligned text to CSV, for plot
	// pipelines.
	CSV bool
	// MaxCycles aborts any single simulation that exceeds this cycle
	// count (0 = unlimited).
	MaxCycles uint64
	// Timeout is each simulation attempt's wall-clock deadline (0 =
	// unlimited): an attempt still running when it passes stops with an
	// error wrapping sim.ErrInterrupted and context.DeadlineExceeded,
	// and is retried like any other failed attempt.
	Timeout time.Duration
	// CheckInvariants enables the opt-in runtime invariant checker in
	// every simulation the experiment launches.
	CheckInvariants bool
	// Telemetry selects an interval-telemetry output format ("csv",
	// "jsonl", "prom"; empty = off). Every simulation the experiment
	// actually executes gets its own collector; the per-run series are
	// merged (sorted by tag) and written to TelemetryOut after the
	// experiment finishes. Memoised runs recalled from a previous
	// experiment in the same campaign do not re-emit series.
	Telemetry string
	// TelemetryInterval is the sampling interval in cycles
	// (0 = telemetry.DefaultInterval).
	TelemetryInterval uint64
	// TelemetryOut receives the merged telemetry stream
	// (nil = io.Discard).
	TelemetryOut io.Writer

	// ---- crash-resilient supervision (all off by default) ----

	// MaxAttempts is the per-simulation attempt budget: a crashed or
	// faulted simulation is retried, resuming from its last good
	// checkpoint when one exists (0 or 1 = no retries).
	MaxAttempts int
	// RetryJitterSeed varies the deterministic jitter of the retry
	// backoff (see retryDelay; 0 is a valid seed, and the schedule is
	// always reproducible).
	RetryJitterSeed uint64
	// ResumeExisting makes even a run's first attempt resume from its
	// checkpoint file when one exists. Campaign experiments leave this
	// off (a fresh campaign starts fresh); care-server sets it so jobs
	// survive process restarts mid-run.
	ResumeExisting bool
	// CheckpointDir, when set, gives every supervised simulation a
	// checkpoint file under it, written every CheckpointEvery measured
	// instructions, so retries resume instead of restarting.
	CheckpointDir string
	// CheckpointEvery is the measured-instruction period between
	// checkpoints (0 with CheckpointDir set = a quarter of Measure).
	CheckpointEvery uint64
	// Faults injects deterministic faults into every simulation the
	// experiment launches (chaos testing; nil = none). Crash-class
	// faults (kill-at, ckpt-corrupt) apply to first attempts only.
	Faults *faultinject.Config
	// Report, when non-nil, accumulates per-simulation outcomes
	// (completed/retried/dropped); Campaign.Run creates one for
	// supervised campaigns and prints its summary.
	Report *Report

	// TelemetryRegistry, when non-nil, receives every supervised run's
	// interval series (tagged TelemetryTag + run tag). care-server
	// shares one registry across jobs and writes it on /metrics and at
	// shutdown; with Telemetry set, Campaign.Run replaces it with a fresh
	// registry for the experiment and writes that to TelemetryOut.
	TelemetryRegistry *telemetry.Registry
	// TelemetryTag prefixes the series tags of supervised runs (e.g. a
	// job ID), distinguishing repeated submissions of the same config.
	TelemetryTag string

	// traceSeed, when non-zero, replaces the base trace seed of every
	// run (see runKey.seed), so in-package tests can check that a
	// verdict holds beyond the default streams.
	traceSeed uint64

	// ctx and campaign are the running campaign's context and memo,
	// set by Campaign.Run for the experiment it runs.
	ctx      context.Context
	campaign *Campaign
}

// supervised reports whether runs go through the retry supervisor.
func (o *Options) supervised() bool {
	return o.MaxAttempts > 1 || o.CheckpointDir != "" || o.Faults != nil
}

// checkpointEvery resolves the checkpoint period.
func (o *Options) checkpointEvery() uint64 {
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return o.Measure / 4
}

// Defaults fills unset fields with evaluation-friendly values.
func (o *Options) Defaults() {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Scale <= 0 {
		o.Scale = 16
	}
	if o.Measure == 0 {
		o.Measure = 100_000
	}
	if o.Warmup == 0 {
		o.Warmup = 30_000
	}
	if len(o.CoreCounts) == 0 {
		o.CoreCounts = []int{4, 8, 16}
	}
	if o.Mixes <= 0 {
		o.Mixes = 12
	}
	if o.GAPRecords <= 0 {
		o.GAPRecords = DefaultGAPRecords
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// DefaultSchemes is the comparison set of Figures 7-12.
func DefaultSchemes() []string {
	return []string{"lru", "ship++", "hawkeye", "glider", "m-care", "care"}
}

// noPrefetchScheme is the scheme the no-prefetch scalability study
// (fig13, fig14) adds to DefaultSchemes, as the paper does.
const noPrefetchScheme = "mockingjay"

// schemes returns the option override or the default set.
func (o *Options) schemes() []string {
	if len(o.Schemes) > 0 {
		return o.Schemes
	}
	return DefaultSchemes()
}

// specProfiles resolves the workload list.
func (o *Options) specProfiles(defaults []synth.Profile) ([]synth.Profile, error) {
	if len(o.Workloads) == 0 {
		return defaults, nil
	}
	var out []synth.Profile
	for _, name := range o.Workloads {
		p, err := synth.Lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ScalabilitySubset is the representative 8-workload subset the
// multi-core scalability experiments default to (full 30-workload
// sweeps remain available via Options.Workloads).
func ScalabilitySubset() []string {
	return []string{
		"429.mcf", "450.soplex", "462.libquantum", "470.lbm",
		"473.astar", "482.sphinx3", "483.xalancbmk", "603.bwaves_s",
	}
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the index key ("fig7", "tab2", ...).
	ID string
	// Title describes what is reproduced.
	Title string
	// Run executes the experiment and writes its report to o.Out.
	Run func(o *Options) error
}

// experiments is every experiment, sorted by ID.
var experiments = []Experiment{
	{ID: "abl-dtrm", Title: "Ablation: CARE with and without DTRM, and with static threshold variants", Run: runAblDTRM},
	{ID: "abl-mshr", Title: "Ablation: CARE sensitivity to LLC MSHR size (concurrency headroom)", Run: runAblMSHR},
	{ID: "abl-prefetch", Title: "Ablation: CARE-vs-LRU gap under different L2 prefetchers", Run: runAblPrefetch},
	{ID: "abl-sample", Title: "Ablation: CARE SHT training with 16/64/256 sampled sets", Run: runAblSample},
	{ID: "fig10", Title: "Weighted speedup over 4-core mixed workloads with prefetching", Run: runFig10},
	{ID: "fig11", Title: "SPEC speedup at 4/8/16 cores with prefetching", Run: runScalabilitySpec(true)},
	{ID: "fig12", Title: "GAP speedup at 4/8/16 cores with prefetching", Run: runScalabilityGAP(true)},
	{ID: "fig13", Title: "SPEC speedup at 4/8/16 cores without prefetching (incl. Mockingjay)", Run: runScalabilitySpec(false)},
	{ID: "fig14", Title: "GAP speedup at 4/8/16 cores without prefetching (incl. Mockingjay)", Run: runScalabilityGAP(false)},
	{ID: "fig3", Title: "Percentage of LLC misses with hit-miss overlapping (4-core multi-copy, LRU)", Run: runFig3},
	{ID: "fig5", Title: "Distribution of PMC (single core, LRU, 16 workloads)", Run: runFig5},
	{ID: "fig7", Title: "Normalized IPC, 4-core multi-copy SPEC with prefetching", Run: runFig7},
	{ID: "fig8", Title: "LLC pure miss rate (pMR), 4-core multi-copy SPEC with prefetching", Run: runFig8},
	{ID: "fig9", Title: "Normalized IPC, 4-core multi-copy GAP with prefetching", Run: runFig9},
	{ID: "svc", Title: "care/cache library hit ratio on service traffic (not in the paper)", Run: runSvc},
	{ID: "tab1", Title: "MLP-based cost of the study case (Figure 2 / Table I)", Run: runTab1},
	{ID: "tab10", Title: "Average pMR and PMC per scheme (4-core SPEC with prefetching)", Run: runTab10},
	{ID: "tab11", Title: "Average Overlapping Cycles Per Access (AOCPA) vs core count", Run: runTab11},
	{ID: "tab2", Title: "PMC of the study case (Figure 2 / Table II)", Run: runTab2},
	{ID: "tab3", Title: "Distribution and median of per-PC PMC deltas", Run: runTab3},
	{ID: "tab5", Title: "Hardware cost of CARE (16-way 2MB LLC)", Run: runTab5},
	{ID: "tab6", Title: "Hardware cost comparison across frameworks", Run: runTab6},
	{ID: "tab7", Title: "Simulated system configuration (full-size and as scaled)", Run: runTab7},
	{ID: "tab8", Title: "Single-core LLC MPKI of the evaluated SPEC workloads", Run: runTab8},
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
}

// IDs lists the experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.ID
	}
	return out
}

// All returns the experiments sorted by ID.
func All() []Experiment { return slices.Clone(experiments) }

// PanicError is a panic recovered from an experiment or one of its
// simulation workers, tagged with the experiment (or job) that raised
// it. A misbehaving policy or workload therefore fails its own
// experiment instead of killing the whole benchmark process.
type PanicError struct {
	// ID names the experiment or parallel job that panicked.
	ID string
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("harness: %s panicked: %v\n%s", e.ID, e.Value, e.Stack)
}

// Campaign runs experiments that share simulations: Figures 7 and 8
// and Table X read the same 4-core runs, and Figures 11 and 13 reuse
// Figure 7's 4-core cells. It memoises every fault-free result by its
// run key, so an experiment recalls what an earlier one in the same
// campaign simulated. A Campaign is safe for concurrent use.
type Campaign struct {
	mu   sync.Mutex
	runs map[runKey]sim.Result
}

// NewCampaign returns a campaign that has simulated nothing yet.
func NewCampaign() *Campaign { return &Campaign{runs: map[runKey]sim.Result{}} }

// Run executes one experiment by ID with defaulted options. Panics
// raised by the experiment body are recovered and returned as a
// *PanicError tagged with the experiment ID. Cancelling ctx stops the
// campaign: simulations already running finish (so their results and
// telemetry are reported), simulations not yet started fail with an
// error wrapping ctx's error, and supervised runs start no further
// attempt.
func (c *Campaign) Run(ctx context.Context, id string, o Options) error {
	e, err := Get(id)
	if err != nil {
		return err
	}
	return c.run(ctx, e, o)
}

// run executes e within the campaign.
func (c *Campaign) run(ctx context.Context, e Experiment, o Options) (err error) {
	o.Defaults()
	o.ctx, o.campaign = ctx, c
	if o.Telemetry != "" {
		if !telemetry.ValidFormat(o.Telemetry) {
			return fmt.Errorf("harness: telemetry format %q (have %s)",
				o.Telemetry, strings.Join(telemetry.Formats(), ", "))
		}
		o.TelemetryRegistry = telemetry.NewRegistry()
	}
	if o.supervised() && o.Report == nil {
		o.Report = NewReport()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{ID: "experiment " + e.ID, Value: r, Stack: debug.Stack()}
		}
	}()
	runErr := e.Run(&o)
	if o.Report != nil && len(o.Report.Outcomes()) > 0 {
		fmt.Fprint(o.Out, o.Report.Summary())
	}
	// Flush whatever telemetry the completed simulations produced even
	// when the experiment failed or was interrupted — partial series
	// beat none after hours of simulation.
	flushErr := o.flushTelemetry()
	if runErr != nil {
		return runErr
	}
	return flushErr
}

// flushTelemetry writes the merged per-simulation series collected
// during the experiment. Single-goroutine: the parallel workers only
// Add to the registry; merging happens after they have all joined.
func (o *Options) flushTelemetry() error {
	if o.Telemetry == "" || o.TelemetryRegistry.Len() == 0 {
		return nil
	}
	w := o.TelemetryOut
	if w == nil {
		w = io.Discard
	}
	if err := telemetry.Write(w, o.Telemetry, o.TelemetryRegistry.Series()); err != nil {
		return fmt.Errorf("harness: telemetry: %w", err)
	}
	return nil
}

// ---- shared simulation plumbing ----

// runKey identifies one simulation for memoisation: several
// experiments (fig7/fig8/tab10) share the same runs.
type runKey struct {
	kind string // "spec", "gap" or "mix"
	// workload is a synthetic profile name ("spec"), a kernel-dataset
	// pair ("gap"), or the index of a fig10 mixed workload ("mix").
	workload string
	scheme   string
	cores    int
	prefetch bool
	scale    int
	warmup   uint64
	measure  uint64
	gapRecs  int
	// traceSeed is Options.traceSeed (0 = the default seeds).
	traceSeed uint64

	// Ablation variants of the paper's system; zero values leave it
	// as it is, and a non-zero value adds a tag suffix.
	care       careplc.Config // CARE tuning
	llcMSHR    int            // LLC MSHR entries
	l2Prefetch string         // L2 prefetcher name
}

// specTraces builds cores copies of one synthetic workload, core i
// streaming from seed+i.
func specTraces(p synth.Profile, cores, scale int, seed uint64) []trace.Reader {
	out := make([]trace.Reader, cores)
	for i := range out {
		out[i] = synth.NewScaledGenerator(p, seed+uint64(i), scale)
	}
	return out
}

// gapTraceCache holds generated kernel traces (generation itself is
// deterministic but not free).
var (
	gapMu    sync.Mutex
	gapCache = map[string]*trace.Slice{}
)

// gapBase returns the shared record slice for kernel-dataset; seed
// picks the source vertex of source-based kernels.
func gapBase(kernel, dataset string, maxRecords int, seed uint64) (*trace.Slice, error) {
	key := fmt.Sprintf("%s-%s-%d-%d", kernel, dataset, maxRecords, seed)
	gapMu.Lock()
	if s, ok := gapCache[key]; ok {
		gapMu.Unlock()
		return s, nil
	}
	gapMu.Unlock()
	g, err := graph.LoadDataset(dataset)
	if err != nil {
		return nil, err
	}
	s, err := graph.Trace(kernel, g, maxRecords, seed)
	if err != nil {
		return nil, err
	}
	gapMu.Lock()
	gapCache[key] = s
	gapMu.Unlock()
	return s, nil
}

// buildTraces constructs the keyed simulation's trace readers. Every
// call returns freshly positioned readers over the same deterministic
// streams; a checkpoint restore reads their positions from the file.
func buildTraces(key runKey) ([]trace.Reader, error) {
	switch key.kind {
	case "spec":
		p, err := synth.Lookup(key.workload)
		if err != nil {
			return nil, err
		}
		return specTraces(p, key.cores, key.scale, key.seed()), nil
	case "gap":
		// workload is encoded as "kernel-dataset" (e.g. "bfs-or").
		kernel, dataset, ok := strings.Cut(key.workload, "-")
		if !ok {
			return nil, fmt.Errorf("harness: bad GAP workload %q", key.workload)
		}
		base, err := gapBase(kernel, dataset, key.gapRecs, key.baseSeed())
		if err != nil {
			return nil, err
		}
		return trace.Copies(base.Records, key.cores), nil
	case "mix":
		m, err := strconv.Atoi(key.workload)
		if err != nil {
			return nil, fmt.Errorf("harness: bad mix index %q", key.workload)
		}
		out := make([]trace.Reader, key.cores)
		for i, p := range synth.MixedWorkload(key.cores, m) {
			out[i] = synth.NewScaledGenerator(p, key.seed()+uint64(i), key.scale)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("harness: bad run kind %q", key.kind)
	}
}

// config returns the system configuration of the keyed run, before
// the options' guards, faults and telemetry.
func (key runKey) config() sim.Config {
	cfg := sim.ScaledConfig(key.cores, key.scale)
	cfg.LLCPolicy = policy.Policy(key.scheme)
	cfg.Prefetch = key.prefetch
	cfg.CARE = key.care
	if key.llcMSHR > 0 {
		cfg.LLC.MSHREntries = key.llcMSHR
	}
	cfg.L2Prefetcher = key.l2Prefetch
	return cfg
}

// runAttempt executes one attempt of the keyed simulation. With resume
// set it continues from the newest usable checkpoint at ckptPath (live
// file, then its rotated predecessor) and, when neither is usable,
// starts fresh; it reports whether the attempt resumed. Retry attempts
// run with crash-class faults disabled: an injected kill or checkpoint
// corruption models the first execution crashing, and a real re-run
// would not deterministically re-crash. Cancelling ctx stops the
// simulation at its next guard point, as it does for care.Run; the
// stop writes no checkpoint, so the last scheduled one is what a later
// attempt resumes from. Options.Timeout is a deadline on the
// attempt's own context, so a timed-out attempt does not cancel ctx.
func runAttempt(ctx context.Context, key runKey, o *Options, ckptPath string, resume bool, attempt int) (sim.Result, bool, error) {
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	cfg := key.config()
	o.applyGuards(&cfg)
	if o.Faults != nil {
		faults := *o.Faults
		if attempt > 1 {
			faults.KillAtCycle = 0
			faults.CkptCorruptNth = 0
		}
		cfg.Faults = &faults
	}

	// Each concurrently running simulation gets a private collector;
	// only the finished, copied series touches the shared
	// (mutex-guarded) registry, so workers never race.
	registry := o.TelemetryRegistry
	job := sim.Job{
		Build: func() (*sim.System, error) {
			traces, err := buildTraces(key)
			if err != nil {
				return nil, err
			}
			cfg := cfg
			if registry != nil {
				cfg.Telemetry = telemetry.NewCollector(telemetry.Options{
					Interval: o.TelemetryInterval,
					Tag:      o.TelemetryTag + key.tag(),
				})
			}
			return sim.New(cfg, traces)
		},
		Warmup:  key.warmup,
		Measure: key.measure,
		Resume:  resume,
	}
	if ckptPath != "" {
		job.Checkpoint = sim.CheckpointOptions{Path: ckptPath, Every: o.checkpointEvery()}
	}
	r, out, err := sim.Execute(ctx, job)
	if errors.Is(err, sim.ErrNoCheckpoint) {
		job.Resume = false
		r, out, err = sim.Execute(ctx, job)
	}
	resumed := out.From != ""
	if err != nil {
		return sim.Result{}, resumed, err
	}
	if registry != nil {
		col := out.System.Telemetry()
		registry.Add(col.Meta(), col.Series())
	}
	return r, resumed, nil
}

// runSim executes (or recalls) one simulation through the
// supervisor, which with no retries, checkpoint directory or faults
// configured is exactly one attempt. Several experiments share runs,
// so every result of a run without injected faults is memoised in the
// campaign (and recalled without simulating again); faults perturb a
// run, so faulted runs neither read nor fill the memo. The campaign's
// context schedules the attempts, but each attempt runs without its
// cancellation: a stop lets the running simulation finish.
func (o *Options) runSim(key runKey) (sim.Result, error) {
	c := o.campaign
	c.mu.Lock()
	r, ok := c.runs[key]
	c.mu.Unlock()
	if ok && o.Faults == nil {
		return r, nil
	}
	r, err := o.superviseSim(o.ctx, context.WithoutCancel(o.ctx), key)
	if err == nil && o.Faults == nil {
		c.mu.Lock()
		c.runs[key] = r
		c.mu.Unlock()
	}
	return r, err
}

// tag renders the run identity used to label its telemetry series.
func (k runKey) tag() string {
	t := fmt.Sprintf("%s/%s/%s/c%d", k.kind, k.workload, k.scheme, k.cores)
	if k.prefetch {
		t += "/pf"
	}
	if c := k.care; c != (careplc.Config{}) {
		t += fmt.Sprintf("/care-sets%d-period%d-static%t-low%g-high%g-seed%d",
			c.SampledSets, c.DTRMPeriod, c.DisableDTRM, c.PMCLow, c.PMCHigh, c.Seed)
	}
	if k.llcMSHR > 0 {
		t += fmt.Sprintf("/mshr%d", k.llcMSHR)
	}
	if k.l2Prefetch != "" {
		t += "/l2pf-" + k.l2Prefetch
	}
	if k.traceSeed != 0 {
		t += fmt.Sprintf("/seed%d", k.traceSeed)
	}
	return t
}

// baseSeed is the seed every trace of the run derives from: 1 unless
// an in-package test set another.
func (k runKey) baseSeed() uint64 {
	if k.traceSeed != 0 {
		return k.traceSeed
	}
	return 1
}

// seed is the trace seed of the run's first core (core i streams from
// seed+i); GAP traces report 0 unless a test moved their source
// vertex off the default.
func (k runKey) seed() uint64 {
	switch k.kind {
	case "spec":
		return k.baseSeed()
	case "mix":
		m, _ := strconv.Atoi(k.workload)
		return uint64(100*m) + k.baseSeed()
	}
	return k.traceSeed
}

// checkpointFile names the run's checkpoint file.
func (k runKey) checkpointFile() string {
	return strings.ReplaceAll(k.tag(), "/", "_") + ".ckpt"
}

// simKey is the run of workload (of kind "spec", "gap" or "mix")
// under scheme on a cores-core system at the options' scale and
// instruction budgets.
func (o *Options) simKey(kind, workload, scheme string, cores int, prefetch bool) runKey {
	return runKey{
		kind: kind, workload: workload, scheme: scheme,
		cores: cores, prefetch: prefetch, scale: o.Scale,
		warmup: o.Warmup, measure: o.Measure, traceSeed: o.traceSeed,
	}
}

// grid runs an experiment's rows × cols matrix of simulations, where
// key(i, j) names the run of cell (i, j), and returns its results as
// res[i][j]. Each distinct key runs once, in one parallel fan-out, so
// a baseline column may repeat a compared column without a second
// simulation.
func grid(o *Options, rows, cols int, key func(i, j int) runKey) ([][]sim.Result, error) {
	var keys []runKey
	index := map[runKey]int{}
	cell := make([]int, rows*cols)
	for c := range cell {
		k := key(c/cols, c%cols)
		n, ok := index[k]
		if !ok {
			n = len(keys)
			index[k] = n
			keys = append(keys, k)
		}
		cell[c] = n
	}
	runs := make([]sim.Result, len(keys))
	err := parallel(o.ctx, len(keys), o.Parallelism, func(n int) (err error) {
		runs[n], err = o.runSim(keys[n])
		return err
	})
	if err != nil {
		return nil, err
	}
	res := make([][]sim.Result, rows)
	for i := range res {
		res[i] = make([]sim.Result, cols)
		for j := range res[i] {
			res[i][j] = runs[cell[i*cols+j]]
		}
	}
	return res, nil
}

// matrix maps every result of a grid through f.
func matrix(res [][]sim.Result, f func(sim.Result) float64) [][]float64 {
	out := make([][]float64, len(res))
	for i, row := range res {
		for _, r := range row {
			out[i] = append(out[i], f(r))
		}
	}
	return out
}

// overBase maps columns 1.. of every grid row through f against the
// row's column-0 baseline run.
func overBase(res [][]sim.Result, f func(r, base sim.Result) float64) [][]float64 {
	out := make([][]float64, len(res))
	for i, row := range res {
		for _, r := range row[1:] {
			out[i] = append(out[i], f(r, row[0]))
		}
	}
	return out
}

// ipcOver is a run's IPC normalised to its baseline's.
func ipcOver(r, base sim.Result) float64 { return r.IPCSum() / base.IPCSum() }

// column returns column j of vals.
func column(vals [][]float64, j int) []float64 {
	out := make([]float64, len(vals))
	for i, row := range vals {
		out[i] = row[j]
	}
	return out
}

// summarise applies f to every column of vals.
func summarise(vals [][]float64, f func([]float64) float64) []float64 {
	out := make([]float64, len(vals[0]))
	for j := range out {
		out[j] = f(column(vals, j))
	}
	return out
}

// groupGeoMean folds each n consecutive rows of vals into one row of
// column-wise geometric means.
func groupGeoMean(vals [][]float64, n int) [][]float64 {
	out := make([][]float64, len(vals)/n)
	for g := range out {
		out[g] = summarise(vals[g*n:(g+1)*n], stats.GeoMean)
	}
	return out
}

// emitMatrix prints vals[i] as the row named names[i] under header,
// then, when summary is "GEOMEAN" or "MEAN", that column-wise
// summary row.
func emitMatrix(o *Options, header, names []string, vals [][]float64, summary string) {
	t := stats.NewTable(header...)
	row := func(name string, vs []float64) {
		cells := []interface{}{name}
		for _, v := range vs {
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	for i, name := range names {
		row(name, vals[i])
	}
	switch summary {
	case "GEOMEAN":
		row(summary, summarise(vals, stats.GeoMean))
	case "MEAN":
		row(summary, summarise(vals, stats.Mean))
	}
	emitTable(o, t)
}

// applyGuards threads the runaway-simulation guard rails from the
// options into one simulator config.
func (o *Options) applyGuards(cfg *sim.Config) {
	cfg.MaxCycles = o.MaxCycles
	cfg.CheckInvariants = o.CheckInvariants
}

// parallel runs n jobs over a bounded worker pool. Every job runs to
// completion regardless of other jobs' failures, and ALL errors are
// returned, joined — a campaign summary names every failed simulation
// instead of just the first. A panicking job is recovered into a
// *PanicError so one bad worker fails its experiment without killing
// the process. Once ctx is done, jobs not yet started are skipped
// with an error wrapping ctx's error while in-flight jobs run to
// completion.
func parallel(ctx context.Context, n, workers int, job func(i int) error) error {
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = &PanicError{
						ID:    fmt.Sprintf("worker %d", i),
						Value: r,
						Stack: debug.Stack(),
					}
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = fmt.Errorf("job %d skipped: %w", i, err)
				return
			}
			errs[i] = job(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// gapWorkloads enumerates the 15 kernel-dataset pairs of Figure 9.
func gapWorkloads() []string {
	var out []string
	for _, k := range graph.Kernels() {
		for _, d := range graph.Datasets() {
			out = append(out, k+"-"+d.Short)
		}
	}
	return out
}

// emitTable renders a result table in the selected output format.
func emitTable(o *Options, t *stats.Table) {
	if o.CSV {
		fmt.Fprint(o.Out, t.CSV())
		return
	}
	fmt.Fprint(o.Out, t.String())
}
