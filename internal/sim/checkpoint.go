// Checkpoint/restore orchestration: quiescing the pipeline, writing
// every component's state into one framed checkpoint file, and
// Execute, the one run driver, whose segment schedule makes a resumed
// run bit-identical to an uninterrupted one (see DESIGN.md §8).
package sim

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/bits"
	"os"
	"slices"

	"care/internal/checkpoint"
	"care/internal/faultinject"
)

// Checkpoint-specific sentinels; like the integrity sentinels they
// arrive wrapped in a *FailureError when raised by the run loop.
var (
	// ErrInterrupted means Execute's context was done and the run
	// loop stopped at its next guard point (or, for an ErrDrain cause,
	// after its next scheduled checkpoint).
	ErrInterrupted = errors.New("sim: interrupted")
	// ErrQuiesce means the system could not drain to a quiescent point
	// within drainLimit cycles (something is wedged).
	ErrQuiesce = errors.New("sim: quiesce did not drain")
	// ErrNoCheckpoint means a resumed Job found no usable checkpoint:
	// every candidate file was missing or unusable.
	ErrNoCheckpoint = errors.New("sim: no usable checkpoint")
	// ErrDrain, used as a context cancellation *cause* (see
	// context.WithCancelCause), asks Execute to drain rather than stop
	// at the next guard point: the run continues to its next scheduled
	// checkpoint, writes it, and only then stops with ErrInterrupted.
	// Either way the newest checkpoint is on the schedule, and a run
	// resumed from it is bit-identical to one never stopped.
	ErrDrain = errors.New("sim: drain requested")
)

// drainLimit bounds a drain, to empty queues (Drain) or to a
// quiescent point (Quiesce). A full ROB plus full MSHR files behind a
// row-missing DRAM drains in thousands of cycles; a million means
// "wedged", not "slow".
const drainLimit = 1_000_000

// A run to retirement targets is bounded by maxCyclesPerInstr cycles
// per instruction it still has to retire, plus loopSlack: the worst
// case of every instruction being an isolated DRAM row miss.
const (
	maxCyclesPerInstr = 400
	loopSlack         = 1_000_000
)

// scheduleCycles bounds the cycle a checkpoint of job can carry: the
// cycle bounds of job's runs — warm-up, then each measure segment,
// whose cores are at most Measure instructions short of their targets
// — and of the drains between and after them. Counts that overflow
// saturate.
func scheduleCycles(job Job, cores int) uint64 {
	segments := uint64(1)
	if e := job.Checkpoint.Every; e > 0 && e < job.Measure {
		segments = (job.Measure + e - 1) / e
	}
	loop := func(instr uint64) uint64 {
		return satAdd(satMul(satMul(instr, uint64(cores)), maxCyclesPerInstr), loopSlack)
	}
	return satAdd(satAdd(loop(job.Warmup), satMul(segments, loop(job.Measure))), satMul(segments+1, drainLimit))
}

func satAdd(a, b uint64) uint64 {
	if s, carry := bits.Add64(a, b, 0); carry == 0 {
		return s
	}
	return math.MaxUint64
}

func satMul(a, b uint64) uint64 {
	if hi, lo := bits.Mul64(a, b); hi == 0 {
		return lo
	}
	return math.MaxUint64
}

// Quiesce freezes instruction dispatch and steps the system until no
// in-flight state remains anywhere: empty ROBs, drained caches and
// MSHRs, no outstanding DRAM reads, no held fault responses. At that
// point no structure holds a completion route and the whole system is
// plain data the components' Checkpoint walks can store. Dispatch
// resumes before returning, whether or not the drain succeeded.
func (s *System) Quiesce() error {
	// Freezing changes how a stalled core's skipped cycles count, so
	// the cycles on either side of each switch are accounted apart.
	s.catchUp()
	for _, c := range s.cores {
		c.SetFetchFrozen(true)
	}
	defer func() {
		s.catchUp()
		for _, c := range s.cores {
			c.SetFetchFrozen(false)
		}
	}()
	return s.run(goalQuiesced, s.cycle+drainLimit)
}

// quiescent reports whether no component holds in-flight work.
func (s *System) quiescent() bool {
	for _, c := range s.cores {
		if !c.Quiesced() {
			return false
		}
	}
	return s.drained()
}

// drained reports whether no cache, DRAM or fault-memory queue holds
// work.
func (s *System) drained() bool {
	for _, c := range s.l1s {
		if !c.Drained() {
			return false
		}
	}
	for _, c := range s.l2s {
		if !c.Drained() {
			return false
		}
	}
	if !s.llc.Drained() || !s.mem.Drained() {
		return false
	}
	if s.faultMem != nil && s.faultMem.Held() != 0 {
		return false
	}
	return true
}

// Checkpointable verifies every component can be checkpointed right
// now; it returns the first objection, wrapping
// checkpoint.ErrNotCheckpointable.
func (s *System) Checkpointable() error {
	for i, c := range s.cores {
		if !c.Quiesced() {
			return fmt.Errorf("%w: core %d not quiesced", checkpoint.ErrNotCheckpointable, i)
		}
	}
	for _, c := range s.l1s {
		if err := c.Checkpointable(); err != nil {
			return err
		}
	}
	for _, c := range s.l2s {
		if err := c.Checkpointable(); err != nil {
			return err
		}
	}
	if err := s.llc.Checkpointable(); err != nil {
		return err
	}
	if err := s.mem.Checkpointable(); err != nil {
		return err
	}
	if s.faultMem != nil {
		if err := s.faultMem.Checkpointable(); err != nil {
			return err
		}
	}
	return nil
}

// RunMeta is the checkpoint's leading frame: the system fingerprint a
// restore must match and the run-schedule position the drivers resume
// from.
type RunMeta struct {
	// System fingerprint, filled by WriteCheckpoint.
	Cores        int
	LLCPolicy    string
	L1, L2, LLC  CacheGeom
	HasFaults    bool
	HasTelemetry bool
	Cycle        uint64
	PMCSlack     float64

	// Run-schedule position, maintained by the segment drivers.
	// Phase is "warmup" or "measure"; Done counts measured
	// instructions whose segments have completed; Base is per-core
	// retired counts at the start of the measure phase, the anchor all
	// segment targets are computed from.
	Phase                  string
	Warmup, Measure, Every uint64
	Done                   uint64
	Base                   []uint64
}

// Checkpoint walks the meta frame.
func (m *RunMeta) Checkpoint(s *checkpoint.State) { checkpoint.Plain(s, m) }

const (
	phaseWarmup  = "warmup"
	phaseMeasure = "measure"
)

// frame is one checkpoint frame: its name and its component's walk.
type frame struct {
	name string
	walk func(*checkpoint.State)
}

// buildFrames lists the checkpoint's frames after meta, in file
// order: cores (each with its trace source's state), private caches,
// LLC, DRAM, PML, optional telemetry, and, on a faulted system, the
// fault injector. New builds the list once; frames hands it out.
func (s *System) buildFrames() []frame {
	var out []frame
	add := func(name string, c checkpoint.Component) { out = append(out, frame{name, c.Checkpoint}) }
	for i, c := range s.cores {
		add(fmt.Sprintf("core-%d", i), c)
	}
	for i := range s.l1s {
		add(fmt.Sprintf("l1-%d", i), s.l1s[i])
		add(fmt.Sprintf("l2-%d", i), s.l2s[i])
	}
	add("llc", s.llc)
	add("dram", s.mem)
	add("pmc", s.pml)
	if s.tele != nil {
		add("telemetry", s.tele)
	}
	if s.injector != nil {
		add("faultinject", s.injector)
		add("faultmem", s.faultMem)
	}
	return out
}

// frames returns the frame list WriteCheckpoint and ReadCheckpoint
// both walk. faults says whether the file carries the injector frames;
// ReadCheckpoint has refused a file without them for a faulted system.
func (s *System) frames(faults bool) []frame {
	if faults && s.injector == nil {
		// A fault-free system may resume a faulted run's checkpoint
		// (the supervisor disarms crash-class faults on retries,
		// which can disable injection entirely): the injector frames
		// are validated but discarded.
		return append(slices.Clip(s.frameList),
			frame{"faultinject", new(faultinject.Injector).Checkpoint},
			frame{"faultmem", new(faultinject.Memory).Checkpoint})
	}
	return s.frameList
}

// WriteCheckpoint streams the meta frame and then every component's
// state into w, in the order frames lists. The system must be
// quiescent.
func (s *System) WriteCheckpoint(w *checkpoint.Writer, m RunMeta) error {
	if err := s.Checkpointable(); err != nil {
		return err
	}
	s.catchUp()
	m.Cores = s.cfg.Cores
	m.LLCPolicy = string(s.cfg.LLCPolicy)
	m.L1, m.L2, m.LLC = s.cfg.L1, s.cfg.L2, s.cfg.LLC
	m.HasFaults = s.injector != nil
	m.HasTelemetry = s.tele != nil
	m.Cycle = s.cycle
	m.PMCSlack = s.pmcSlack
	if err := w.Frame("meta", m.Checkpoint); err != nil {
		return err
	}
	for _, f := range s.frames(m.HasFaults) {
		if err := w.Frame(f.name, f.walk); err != nil {
			return err
		}
	}
	return nil
}

// ReadCheckpoint restores a freshly constructed, identically
// configured system from r's frames, written by a run of job, and
// returns the run-schedule position. Any incompatibility, a different
// schedule or trace included, is refused with an error wrapping
// checkpoint.ErrMismatch, and malformed state, a cycle beyond job's
// cycle caps included, with one wrapping checkpoint.ErrCorrupt. A
// restore replays nothing: every trace source reads its state too. A
// failed restore leaves the system unusable: build a new one.
func (s *System) ReadCheckpoint(r *checkpoint.Reader, job Job) (RunMeta, error) {
	var m RunMeta
	if err := r.Frame("meta", m.Checkpoint); err != nil {
		return RunMeta{}, err
	}
	maxCycle := scheduleCycles(job, s.cfg.Cores)
	switch {
	case m.Cores != s.cfg.Cores:
		return RunMeta{}, checkpoint.Mismatchf("checkpoint has %d cores, system has %d", m.Cores, s.cfg.Cores)
	case m.LLCPolicy != string(s.cfg.LLCPolicy):
		return RunMeta{}, checkpoint.Mismatchf("checkpoint ran policy %q, system runs %q", m.LLCPolicy, s.cfg.LLCPolicy)
	case m.L1 != s.cfg.L1 || m.L2 != s.cfg.L2 || m.LLC != s.cfg.LLC:
		return RunMeta{}, checkpoint.Mismatchf("checkpoint cache geometry %+v/%+v/%+v differs from system %+v/%+v/%+v",
			m.L1, m.L2, m.LLC, s.cfg.L1, s.cfg.L2, s.cfg.LLC)
	case !m.HasFaults && s.injector != nil:
		return RunMeta{}, checkpoint.Mismatchf("checkpoint has no fault-injector state for this faulted system")
	case m.HasTelemetry != (s.tele != nil):
		return RunMeta{}, checkpoint.Mismatchf("checkpoint telemetry=%v, system telemetry=%v", m.HasTelemetry, s.tele != nil)
	case m.Warmup != job.Warmup || m.Measure != job.Measure || m.Every != job.Checkpoint.Every:
		return RunMeta{}, checkpoint.Mismatchf(
			"resume schedule differs: checkpoint warmup=%d measure=%d every=%d, job warmup=%d measure=%d every=%d",
			m.Warmup, m.Measure, m.Every, job.Warmup, job.Measure, job.Checkpoint.Every)
	case m.Cycle > maxCycle:
		return RunMeta{}, fmt.Errorf("%w: checkpoint at cycle %d, beyond the %d cycles the run can take",
			checkpoint.ErrCorrupt, m.Cycle, maxCycle)
	}
	for _, f := range s.frames(m.HasFaults) {
		if err := r.Frame(f.name, f.walk); err != nil {
			return RunMeta{}, err
		}
	}
	if err := r.End(); err != nil {
		return RunMeta{}, err
	}
	s.cycle = m.Cycle
	for _, c := range s.cores {
		c.SetClock(m.Cycle)
	}
	for _, c := range s.allCaches() {
		c.SetClock(m.Cycle)
	}
	// Wake the caches on the first step; its pass rebuilds the bound.
	s.cacheWake = 0
	s.pmcSlack = m.PMCSlack
	// Re-arm the watchdog for the resumed run.
	s.watchSig = s.progressSig()
	s.watchLast = s.cycle
	return m, nil
}

// SaveCheckpoint atomically writes the system's checkpoint to path.
// When fault injection is active the injector may corrupt the written
// file afterwards (the ckpt-corrupt fault class).
func (s *System) SaveCheckpoint(path string, m RunMeta) error {
	if err := checkpoint.Save(path, func(w *checkpoint.Writer) error {
		return s.WriteCheckpoint(w, m)
	}); err != nil {
		return err
	}
	if s.injector != nil {
		if _, err := s.injector.OnCheckpointWritten(path); err != nil {
			return err
		}
	}
	return nil
}

// LoadCheckpoint restores the system from the checkpoint at path,
// written by a run of job, as ReadCheckpoint does.
func (s *System) LoadCheckpoint(path string, job Job) (RunMeta, error) {
	var m RunMeta
	err := checkpoint.Load(path, func(r *checkpoint.Reader) error {
		var err error
		m, err = s.ReadCheckpoint(r, job)
		return err
	})
	return m, err
}

// CheckpointOptions configures a Job's checkpoint schedule.
type CheckpointOptions struct {
	// Path is the checkpoint file; the previous checkpoint rotates to
	// Path+".1" before each new write, so one known-good predecessor
	// survives a corrupted write. Empty disables checkpoint writing
	// (the quiesce schedule set by Every still runs).
	Path string
	// Every is the number of measured instructions per schedule
	// segment, with a pipeline quiesce (and, with Path set, a
	// checkpoint) between segments. Every — not Path — determines the
	// executed schedule, so runs that agree on Every are bit-identical
	// regardless of where their checkpoints go (0 = one segment, no
	// scheduled checkpoints).
	Every uint64
}

// RotatedPath returns the fallback location of the previous
// checkpoint.
func RotatedPath(path string) string { return path + ".1" }

// Job is one simulation for Execute: a warmup, then a measured region
// run on the checkpoint schedule, started fresh or resumed.
type Job struct {
	// Build constructs the system over freshly positioned traces. A
	// failed restore leaves a system unusable, so Execute calls Build
	// once per restore attempt.
	Build func() (*System, error)
	// Warmup and Measure are per-core instruction budgets.
	Warmup, Measure uint64
	// Checkpoint sets the measured region's segment schedule and where
	// its checkpoints go.
	Checkpoint CheckpointOptions
	// Resume continues the run checkpointed at Checkpoint.Path (which
	// must be set), falling back to RotatedPath(Checkpoint.Path).
	// Warmup, Measure and Checkpoint.Every must match that run.
	Resume bool
}

// Outcome reports how Execute produced its result.
type Outcome struct {
	// System is the system the last attempt ran, for post-run
	// inspection; nil when Build failed or its trace sources cannot be
	// checkpointed (checkpoint.ErrNotCheckpointable) for a job that must.
	System *System
	// From is the checkpoint the returned attempt resumed from ("" for
	// a fresh run).
	From string
	// Skipped lists the checkpoints passed over as unusable, in the
	// order they were tried.
	Skipped []SkippedCheckpoint
}

// SkippedCheckpoint is a checkpoint file a resume could not use.
type SkippedCheckpoint struct {
	Path string
	Err  error
}

// Execute runs job under ctx. The segment targets are absolute
// (anchored at the measure-phase start), so a run resumed from any of
// its checkpoints replays the identical remaining schedule and
// produces bit-identical results. A resume tries Checkpoint.Path, then
// its rotated predecessor, skipping missing files; a checkpoint-class
// failure (corrupt, truncated, wrong version, wrong configuration)
// rebuilds the system and tries the next file, and any other failure
// returns at once. With no usable checkpoint the error wraps
// ErrNoCheckpoint and the last restore error.
//
// Cancelling ctx stops the run at its next guard point and returns the
// partial result with an error wrapping both ErrInterrupted and the
// context's error; a ctx cancelled with ErrDrain as its cause stops
// after the next scheduled checkpoint instead. A stop writes no
// checkpoint, so the newest file at Checkpoint.Path is always on the
// schedule and resuming from it is bit-identical to never stopping.
// Integrity failures also return the partial result alongside their
// error.
func Execute(ctx context.Context, job Job) (Result, Outcome, error) {
	if !job.Resume {
		s, r, err := execute(ctx, job, "")
		return r, Outcome{System: s}, err
	}
	var out Outcome
	path := job.Checkpoint.Path
	for _, from := range []string{path, RotatedPath(path)} {
		if _, err := os.Stat(from); err != nil {
			continue
		}
		s, r, err := execute(ctx, job, from)
		out.System = s
		if s == nil {
			return r, out, err
		}
		if !badCheckpoint(err) {
			out.From = from
			return r, out, err
		}
		out.Skipped = append(out.Skipped, SkippedCheckpoint{Path: from, Err: err})
	}
	if len(out.Skipped) == 0 {
		return Result{}, out, fmt.Errorf("%w: no file at %s or %s", ErrNoCheckpoint, path, RotatedPath(path))
	}
	return Result{}, out, fmt.Errorf("%w: %w", ErrNoCheckpoint, out.Skipped[len(out.Skipped)-1].Err)
}

// execute makes one attempt at job on a freshly built system, resuming
// from the checkpoint at from when it is set.
func execute(ctx context.Context, job Job, from string) (*System, Result, error) {
	s, err := job.Build()
	if err != nil {
		return nil, Result{}, err
	}
	if job.Checkpoint.Path != "" {
		// Refuse a trace source that cannot walk its state up front.
		for _, c := range s.cores {
			if _, err := checkpoint.Encode(c.Checkpoint); err != nil {
				return nil, Result{}, err
			}
		}
	}
	s.ctx, s.done = ctx, ctx.Done()
	defer func() { s.ctx, s.done = nil, nil }()
	m := RunMeta{Phase: phaseWarmup, Warmup: job.Warmup, Measure: job.Measure, Every: job.Checkpoint.Every}
	if from != "" {
		saved, err := s.LoadCheckpoint(from, job)
		if err != nil {
			return s, Result{}, err
		}
		m = saved
	}
	r, err := s.runSchedule(m, job.Checkpoint.Path)
	if errors.Is(err, ErrInterrupted) && ctx.Err() != nil {
		err = errors.Join(err, ctx.Err())
	}
	return s, r, err
}

// badCheckpoint reports whether err means the checkpoint itself is
// unusable (corrupt, truncated, wrong version, wrong configuration,
// or missing) as opposed to the resumed run failing on its own.
func badCheckpoint(err error) bool {
	return errors.Is(err, checkpoint.ErrCorrupt) ||
		errors.Is(err, checkpoint.ErrVersion) ||
		errors.Is(err, checkpoint.ErrMismatch) ||
		errors.Is(err, fs.ErrNotExist)
}

// runSchedule executes the (possibly mid-run) schedule in m and
// returns the result so far with the error that stopped it, if any.
func (s *System) runSchedule(m RunMeta, path string) (Result, error) {
	err := s.runSegments(m, path)
	s.closeTelemetry()
	return s.Snapshot(), err
}

// runSegments runs the warmup (unless m is past it), then the
// measured segments, quiescing and checkpointing between them.
func (s *System) runSegments(m RunMeta, path string) error {
	if m.Phase == phaseWarmup {
		if s.tele != nil {
			s.tele.MarkWarmup()
		}
		if m.Warmup > 0 {
			for i := range s.targets {
				s.targets[i] = m.Warmup
			}
			if err := s.runUntilRetired(); err != nil {
				return err
			}
		}
		s.ResetStats()
		m.Phase = phaseMeasure
		m.Done = 0
		m.Base = make([]uint64, len(s.cores))
		for i, c := range s.cores {
			m.Base[i] = c.Retired()
		}
	}

	for m.Done < m.Measure {
		k := m.Measure - m.Done
		if m.Every > 0 && m.Every < k {
			k = m.Every
		}
		for i := range s.targets {
			s.targets[i] = m.Base[i] + m.Done + k
		}
		if err := s.runUntilRetired(); err != nil {
			return err
		}
		m.Done += k
		// The inter-segment quiesce is part of the schedule, not of
		// checkpoint writing: it runs whenever Every is set, so a resumed
		// run (which may write its checkpoints elsewhere or nowhere)
		// drains at exactly the same points as the original and stays
		// bit-identical to it.
		if m.Every > 0 && m.Done < m.Measure {
			if err := s.Quiesce(); err != nil {
				return err
			}
			if path != "" {
				rotate(path)
				if err := s.SaveCheckpoint(path, m); err != nil {
					return err
				}
			}
			// A drain stops here, right after a scheduled checkpoint.
			if errors.Is(context.Cause(s.ctx), ErrDrain) {
				return ErrInterrupted
			}
		}
	}
	return nil
}

// rotate preserves the previous checkpoint as the fallback.
func rotate(path string) {
	if _, err := os.Stat(path); err == nil {
		_ = os.Rename(path, RotatedPath(path))
	}
}

// runUntilRetired runs until every core reaches its absolute
// retirement target in s.targets (or exhausts its trace), bounded by
// maxCyclesPerInstr cycles per instruction still to retire plus
// loopSlack. Absolute targets are what make checkpoint schedules
// replayable: a core that overshot a segment boundary does not shift
// later boundaries.
func (s *System) runUntilRetired() error {
	var remaining uint64
	for i, c := range s.cores {
		if r := c.Retired(); r < s.targets[i] && !c.Exhausted() {
			remaining += s.targets[i] - r
		}
	}
	return s.run(goalRetired, satAdd(s.cycle, satAdd(satMul(remaining, maxCyclesPerInstr), loopSlack)))
}
