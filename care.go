// Package care is a reproduction of "CARE: A Concurrency-Aware
// Enhanced Lightweight Cache Management Framework" (Lu & Wang, HPCA
// 2023) as a self-contained Go library.
//
// It bundles:
//
//   - a trace-driven, cycle-stepped multi-core cache-hierarchy
//     simulator (cores with ROB/issue-width, three cache levels with
//     MSHRs, next-line and IP-stride prefetchers, a banked DRAM
//     model);
//   - the paper's Pure Miss Contribution (PMC) measurement logic and
//     the MLP-based cost metric it improves upon;
//   - the CARE replacement framework (SHT, SBP, EPV policies, DTRM)
//     and its M-CARE ablation, alongside the baselines the paper
//     compares against (LRU, SHiP++, Hawkeye, Glider, Mockingjay),
//     and SRRIP;
//   - synthetic SPEC-like workload generators and instrumented GAP
//     graph kernels as trace sources;
//   - an experiment harness that regenerates every table and figure
//     of the paper's evaluation.
//
// # Quick start
//
//	traces := []care.TraceReader{care.MustSPECTrace("429.mcf", 1, 16)}
//	cfg := care.ScaledConfig(1, 16)
//	cfg.LLCPolicy = care.PolicyCARE
//	result, err := care.Run(context.Background(), cfg, traces,
//		care.RunOpts{Warmup: 50_000, Measure: 200_000})
//
// See the examples/ directory for complete programs and DESIGN.md for
// the architecture and experiment index.
package care

import (
	"context"
	"io"

	"care/internal/checkpoint"
	careplc "care/internal/core/care"
	"care/internal/core/pmc"
	"care/internal/core/studycase"
	"care/internal/graph"
	"care/internal/harness"
	"care/internal/mem"
	"care/internal/policy"
	"care/internal/sim"
	"care/internal/synth"
	"care/internal/telemetry"
	"care/internal/trace"
)

// ---- simulation ----

// SystemConfig describes a simulated multi-core system (cores, cache
// geometry, LLC policy, prefetchers).
type SystemConfig = sim.Config

// CacheGeom is the geometry of one cache level.
type CacheGeom = sim.CacheGeom

// Result summarises one simulation run (per-core IPC, LLC counters,
// pMR, mean PMC, AOCPA, DRAM traffic).
type Result = sim.Result

// System is a runnable simulation instance for callers that need
// cycle-level control; most users should call Run.
type System = sim.System

// DefaultConfig returns the paper's full-size configuration (Table
// VII) for the given core count.
func DefaultConfig(cores int) SystemConfig { return sim.DefaultConfig(cores) }

// ScaledConfig shrinks every cache by the scale factor so experiments
// run quickly; workload footprints should be scaled with the same
// factor (see MustSPECTrace).
func ScaledConfig(cores, scale int) SystemConfig { return sim.ScaledConfig(cores, scale) }

// NewSystem builds a simulation with one trace per core.
func NewSystem(cfg SystemConfig, traces []TraceReader) (*System, error) {
	return sim.New(cfg, traces)
}

// CheckpointOptions schedules periodic quiesce+checkpoint during the
// measured region; see Run and internal/sim.
type CheckpointOptions = sim.CheckpointOptions

// ErrInterrupted is the error a run returns when the context passed
// to Run was cancelled.
var ErrInterrupted = sim.ErrInterrupted

// ErrNotCheckpointable is the error Run returns, before it simulates
// anything, for checkpoints over a caller's own TraceReader.
var ErrNotCheckpointable = checkpoint.ErrNotCheckpointable

// RunOpts configures one Run call. The zero value runs no warmup and
// no measurement, so callers always set at least Measure.
type RunOpts struct {
	// Warmup is the per-core instruction budget executed (and then
	// discarded from the statistics) before measurement begins.
	Warmup uint64
	// Measure is the per-core measured instruction budget.
	Measure uint64
	// Telemetry, when non-nil, attaches an interval collector to the
	// run (it overrides any collector already set on the config).
	// After Run returns, its Series() holds every interval.
	Telemetry *TelemetryCollector
	// Checkpoint, when non-nil, runs the measured region on a
	// checkpoint schedule: segments of Checkpoint.Every instructions
	// with a pipeline quiesce (and, with Checkpoint.Path set, a
	// checkpoint write) between segments.
	Checkpoint *CheckpointOptions
}

// Run builds a system over one trace per core, warms it up, measures,
// and returns the result. Cancelling ctx stops the run: it returns the
// partial result with an error wrapping both ErrInterrupted and the
// context's error. A stop writes no checkpoint; with a checkpoint path
// configured, the last scheduled checkpoint is left for a resume,
// which then matches a run never stopped. Integrity failures
// (watchdog, invariant checker, corrupt traces, cycle and wall-clock
// caps) also surface as errors alongside the partial result. A run that
// checkpoints a caller's own TraceReader fails with ErrNotCheckpointable.
func Run(ctx context.Context, cfg SystemConfig, traces []TraceReader, opts RunOpts) (Result, error) {
	if opts.Telemetry != nil {
		cfg.Telemetry = opts.Telemetry
	}
	if ctx == nil {
		ctx = context.Background()
	}
	job := sim.Job{
		Build:   func() (*System, error) { return sim.New(cfg, traces) },
		Warmup:  opts.Warmup,
		Measure: opts.Measure,
	}
	if opts.Checkpoint != nil {
		job.Checkpoint = *opts.Checkpoint
	}
	r, _, err := sim.Execute(ctx, job)
	return r, err
}

// ---- traces and workloads ----

// TraceReader yields the memory-instruction records a core replays. A
// caller's own reader cannot be checkpointed; this package's can.
type TraceReader = trace.Reader

// TraceRecord is one memory instruction.
type TraceRecord = trace.Record

// Addr is a simulated physical address.
type Addr = mem.Addr

// SPECWorkloads lists the 30 synthetic SPEC-like workload names
// (Table VIII).
func SPECWorkloads() []string { return synth.Names() }

// SPECTrace builds a deterministic trace reader for a named SPEC-like
// workload. seed selects the copy (multi-copy runs use 1..n); scale
// shrinks the footprint to match ScaledConfig.
func SPECTrace(name string, seed uint64, scale int) (TraceReader, error) {
	p, err := synth.Lookup(name)
	if err != nil {
		return nil, err
	}
	return synth.NewScaledGenerator(p, seed, scale), nil
}

// MustSPECTrace is SPECTrace panicking on unknown names.
func MustSPECTrace(name string, seed uint64, scale int) TraceReader {
	r, err := SPECTrace(name, seed, scale)
	if err != nil {
		panic(err)
	}
	return r
}

// GAPKernels lists the five graph kernels (bc, bfs, cc, pr, sssp).
func GAPKernels() []string { return graph.Kernels() }

// GAPDatasets lists the scaled graph datasets (Table IX).
func GAPDatasets() []string {
	var out []string
	for _, d := range graph.Datasets() {
		out = append(out, d.Name)
	}
	return out
}

// GAPTrace runs the named graph kernel over the named dataset and
// returns its recorded reference stream (at most maxRecords records).
func GAPTrace(kernel, dataset string, maxRecords int, seed uint64) (TraceReader, error) {
	g, err := graph.LoadDataset(dataset)
	if err != nil {
		return nil, err
	}
	s, err := graph.Trace(kernel, g, maxRecords, seed)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// LoopingTrace wraps a finite trace so it replays forever (mixed
// workloads replay early finishers, §VI).
func LoopingTrace(r TraceReader) TraceReader { return trace.NewLooping(r) }

// OffsetTrace shifts every address of a trace by delta, giving each
// copy of a multi-copy workload its own address space (as separate
// processes would have). r must also be a resettable reader if it is
// to be wrapped in LoopingTrace afterwards.
func OffsetTrace(r TraceReader, delta Addr) TraceReader { return trace.NewOffset(r, delta) }

// ---- policies ----

// Policy is the typed identifier for an LLC replacement policy; set
// it on SystemConfig.LLCPolicy. Untyped string constants assign
// directly (cfg.LLCPolicy = "care"); runtime strings should go
// through ParsePolicy so an unknown name fails with ErrUnknownPolicy
// at configuration time instead of deep inside simulator setup.
type Policy = policy.Policy

// ErrUnknownPolicy is the typed error ParsePolicy (and config
// validation inside NewSystem/Run) returns for a policy name outside
// the zoo; match it with errors.As.
type ErrUnknownPolicy = policy.ErrUnknown

// The policy zoo: the paper's CARE and its M-CARE ablation, and every
// baseline replacement policy in the registry.
const (
	PolicyCARE       = policy.CARE
	PolicyGlider     = policy.Glider
	PolicyHawkeye    = policy.Hawkeye
	PolicyLRU        = policy.LRU
	PolicyMCARE      = policy.MCARE
	PolicyMockingjay = policy.Mockingjay
	PolicySHiPPP     = policy.SHiPPP
	PolicySRRIP      = policy.SRRIP
)

// ParsePolicy validates a policy name, returning *ErrUnknownPolicy
// for names outside the zoo. It round-trips with Policy.String:
// ParsePolicy(p.String()) == p for every p in AllPolicies().
func ParsePolicy(name string) (Policy, error) { return policy.Parse(name) }

// AllPolicies returns every valid Policy in sorted order.
func AllPolicies() []Policy { return policy.All() }

// CAREConfig tunes the CARE policy (sampled sets, DTRM period and
// thresholds); the zero value is the paper's configuration.
type CAREConfig = careplc.Config

// ---- PMC and the study case ----

// PMCSample is one completed LLC miss with its measured PMC.
type PMCSample = pmc.Sample

// StudyCaseResult is one access of the paper's §III-B study case.
type StudyCaseResult = studycase.Result

// StudyCase replays the paper's Figure 2 access pattern and returns
// the per-access MLP-based costs and PMC values (Tables I and II)
// plus the total active pure miss cycles.
func StudyCase() ([]StudyCaseResult, uint64) { return studycase.RunPaper() }

// FormatStudyCase renders the study case as the paper's tables.
func FormatStudyCase(rs []StudyCaseResult, totalPure uint64) string {
	return studycase.Format(rs, totalPure)
}

// ---- hardware cost (Tables V and VI) ----

// HardwareCostKB returns CARE's total storage budget in KB for the
// paper's 16-way 2MB LLC, and the concurrency-aware share.
func HardwareCostKB() (total, concurrency float64) {
	items := careplc.HardwareCost(careplc.PaperHWConfig())
	return careplc.TotalKB(items, false), careplc.TotalKB(items, true)
}

// ---- telemetry ----

// TelemetryCollector samples interval-resolved metrics (per-core
// IPC/MPKI, LLC and DRAM behaviour, DTRM state) from a running
// simulation without perturbing it; attach one via
// SystemConfig.Telemetry. See internal/telemetry.
type TelemetryCollector = telemetry.Collector

// TelemetryOptions configures a collector (interval, tag).
type TelemetryOptions = telemetry.Options

// TelemetryInterval is one sampled interval record.
type TelemetryInterval = telemetry.Interval

// TelemetrySeries is one run's metadata and its intervals, as
// WriteTelemetry renders them.
type TelemetrySeries = telemetry.Series

// NewTelemetryCollector creates a collector; pass it to a single
// simulation via SystemConfig.Telemetry. It keeps every completed
// interval, warmup included, and does no I/O: read the series with
// its Series method once the run ends (after a resume too, since
// checkpoints carry the whole series) and write it with
// WriteTelemetry.
func NewTelemetryCollector(opts TelemetryOptions) *TelemetryCollector {
	return telemetry.NewCollector(opts)
}

// WriteTelemetry renders finished series to w by format name ("csv",
// "jsonl", "prom").
func WriteTelemetry(w io.Writer, format string, series []TelemetrySeries) error {
	return telemetry.Write(w, format, series)
}

// TelemetryFormats lists the formats WriteTelemetry renders.
func TelemetryFormats() []string { return telemetry.Formats() }

// ---- experiments ----

// ExperimentOptions tunes the paper-reproduction experiments.
type ExperimentOptions = harness.Options

// Experiments lists the reproducible table/figure IDs.
func Experiments() []string { return harness.IDs() }

// RunExperiment regenerates one of the paper's tables or figures,
// writing the report to out.
func RunExperiment(id string, out io.Writer, opts ExperimentOptions) error {
	opts.Out = out
	return harness.Run(id, opts)
}
