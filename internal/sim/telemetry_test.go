package sim

import (
	"reflect"
	"testing"

	"care/internal/telemetry"
)

// telemetryRun executes the standard warmup+measure flow with a
// collector attached and returns the result plus the recorded series.
func telemetryRun(t *testing.T, cfg Config, cores int, interval, warmup, measure uint64) (Result, []telemetry.Interval) {
	t.Helper()
	col := telemetry.NewCollector(telemetry.Options{Interval: interval, Tag: "test"})
	cfg.Telemetry = col
	r, err := runFresh(cfg, mcfTraces(cores), warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return r, col.Series()
}

// TestTelemetryResultsIdentical is the guard for the zero-perturbation
// contract: attaching a collector must not change a single statistic.
func TestTelemetryResultsIdentical(t *testing.T) {
	cfg := ScaledConfig(2, 16)
	cfg.LLCPolicy = "care"
	base, err := runFresh(cfg, mcfTraces(2), 5000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	cfg = ScaledConfig(2, 16)
	cfg.LLCPolicy = "care"
	withTel, _ := telemetryRun(t, cfg, 2, 2000, 5000, 20000)
	if !reflect.DeepEqual(base, withTel) {
		t.Fatalf("telemetry perturbed the simulation:\nwithout: %+v\nwith:    %+v", base, withTel)
	}
}

// TestTelemetryIntervalSums checks that the measured-region interval
// deltas sum exactly to the final aggregate statistics: the collector
// must neither drop nor double-count events at interval, rebase, or
// final-flush boundaries.
func TestTelemetryIntervalSums(t *testing.T) {
	cfg := ScaledConfig(2, 16)
	cfg.LLCPolicy = "care"
	r, ivs := telemetryRun(t, cfg, 2, 2000, 5000, 20000)

	measured := telemetry.Measured(ivs)
	if len(measured) < 2 {
		t.Fatalf("want multiple measured intervals, got %d", len(measured))
	}
	// Intervals tile the measured region contiguously, restarting at
	// index 0 after the warmup rebase.
	if measured[0].Index != 0 {
		t.Errorf("first measured interval has index %d, want 0", measured[0].Index)
	}
	for i := 1; i < len(measured); i++ {
		if measured[i].Start != measured[i-1].End {
			t.Errorf("gap between interval %d and %d: end %d, next start %d",
				i-1, i, measured[i-1].End, measured[i].Start)
		}
		if measured[i].Index != measured[i-1].Index+1 {
			t.Errorf("non-monotonic interval index at %d", i)
		}
	}

	var instr [2]uint64
	var llcAcc, llcMiss, llcPure, reads, writes, rowHits, rowMisses uint64
	for _, iv := range measured {
		for c := range iv.Cores {
			instr[c] += iv.Cores[c].Instructions
		}
		llcAcc += iv.LLC.Accesses
		llcMiss += iv.LLC.Misses
		llcPure += iv.LLC.PureMisses
		reads += iv.DRAM.Reads
		writes += iv.DRAM.Writes
		rowHits += iv.DRAM.RowHits
		rowMisses += iv.DRAM.RowMisses
	}
	for c := range instr {
		if instr[c] != r.CoreInstructions[c] {
			t.Errorf("core %d: interval instruction sum %d != final %d", c, instr[c], r.CoreInstructions[c])
		}
	}
	if llcAcc != r.LLC.Accesses() {
		t.Errorf("LLC access sum %d != final %d", llcAcc, r.LLC.Accesses())
	}
	if llcMiss != r.LLC.Misses() {
		t.Errorf("LLC miss sum %d != final %d", llcMiss, r.LLC.Misses())
	}
	if llcPure != r.LLC.PureMisses {
		t.Errorf("LLC pure-miss sum %d != final %d", llcPure, r.LLC.PureMisses)
	}
	if reads != r.DRAM.Reads || writes != r.DRAM.Writes {
		t.Errorf("DRAM sum R/W %d/%d != final %d/%d", reads, writes, r.DRAM.Reads, r.DRAM.Writes)
	}
	if rowHits != r.DRAM.RowHits || rowMisses != r.DRAM.RowMisses {
		t.Errorf("DRAM row sum H/M %d/%d != final %d/%d", rowHits, rowMisses, r.DRAM.RowHits, r.DRAM.RowMisses)
	}
}

// TestTelemetryPartialFlush: with an interval longer than the whole
// run, Close must still flush exactly one measured interval covering
// the full measured region.
func TestTelemetryPartialFlush(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	r, ivs := telemetryRun(t, cfg, 1, 10_000_000, 2000, 10000)
	measured := telemetry.Measured(ivs)
	if len(measured) != 1 {
		t.Fatalf("got %d measured intervals, want exactly 1 (partial flush)", len(measured))
	}
	iv := measured[0]
	if iv.Instructions() != r.CoreInstructions[0] {
		t.Errorf("partial interval instr %d != final %d", iv.Instructions(), r.CoreInstructions[0])
	}
	if iv.End <= iv.Start {
		t.Errorf("degenerate interval [%d,%d)", iv.Start, iv.End)
	}
}

// TestTelemetryWarmupMarking: warmup intervals carry the Warmup flag,
// measured ones do not, and the measured region starts where warmup
// stopped emitting.
func TestTelemetryWarmupMarking(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	_, ivs := telemetryRun(t, cfg, 1, 1000, 8000, 8000)
	var warm, meas int
	var lastWarmEnd uint64
	for _, iv := range ivs {
		if iv.Warmup {
			warm++
			if iv.End > lastWarmEnd {
				lastWarmEnd = iv.End
			}
		} else {
			meas++
		}
	}
	if warm == 0 || meas == 0 {
		t.Fatalf("want both warmup and measured intervals, got %d/%d", warm, meas)
	}
	for _, iv := range telemetry.Measured(ivs) {
		if iv.Start < lastWarmEnd {
			t.Errorf("measured interval [%d,%d) overlaps warmup region ending %d", iv.Start, iv.End, lastWarmEnd)
		}
	}
}

// TestTelemetryDTRMEpochs drives the care policy with a tiny DTRM
// period so several epochs complete per interval, and checks the
// per-interval DTRM counters stay consistent with the policy totals.
func TestTelemetryDTRMEpochs(t *testing.T) {
	cfg := ScaledConfig(2, 16)
	cfg.LLCPolicy = "care"
	cfg.CARE.DTRMPeriod = 50
	col := telemetry.NewCollector(telemetry.Options{Interval: 2000, Tag: "dtrm"})
	cfg.Telemetry = col
	s, err := New(cfg, mcfTraces(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunInstructions(40000); err != nil {
		t.Fatal(err)
	}
	col.Close(s.Cycle())
	ivs := col.Series()
	if len(ivs) == 0 {
		t.Fatal("no intervals recorded")
	}
	cs := s.CAREStats()
	if cs == nil {
		t.Fatal("care stats unavailable")
	}
	var raises, lowers uint64
	var prevEpoch uint64
	for i, iv := range ivs {
		if iv.CARE == nil {
			t.Fatalf("interval %d missing CARE sample under care policy", i)
		}
		if iv.CARE.Epoch < prevEpoch {
			t.Errorf("interval %d: epoch went backwards %d -> %d", i, prevEpoch, iv.CARE.Epoch)
		}
		prevEpoch = iv.CARE.Epoch
		raises += iv.CARE.Raises
		lowers += iv.CARE.Lowers
		if iv.CARE.PMCHigh <= iv.CARE.PMCLow {
			t.Errorf("interval %d: thresholds inverted (%v >= %v)", i, iv.CARE.PMCLow, iv.CARE.PMCHigh)
		}
	}
	if prevEpoch == 0 {
		t.Error("no DTRM epochs completed despite tiny period")
	}
	if raises != cs.DTRMRaises || lowers != cs.DTRMLowers {
		t.Errorf("interval raise/lower sums %d/%d != policy totals %d/%d",
			raises, lowers, cs.DTRMRaises, cs.DTRMLowers)
	}
	var epvSum uint64
	for _, iv := range ivs {
		for _, n := range iv.CARE.InsertEPV {
			epvSum += n
		}
	}
	var epvTotal uint64
	for _, n := range cs.InsertEPV {
		epvTotal += n
	}
	if epvSum != epvTotal {
		t.Errorf("interval EPV insert sum %d != policy total %d", epvSum, epvTotal)
	}
}

// TestTelemetryStoreGrows: a run with more intervals than the
// preallocated slots keeps every one of them, contiguous and in order.
func TestTelemetryStoreGrows(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	col := telemetry.NewCollector(telemetry.Options{Interval: 2, Tag: "grow"})
	cfg.Telemetry = col
	s, err := New(cfg, mcfTraces(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunInstructions(5000); err != nil {
		t.Fatal(err)
	}
	s.closeTelemetry()
	ivs := col.Series()
	if len(ivs) <= 4096 {
		t.Fatalf("%d intervals, want more than 4096, many doublings of the store", len(ivs))
	}
	var instr, end uint64
	for i, iv := range ivs {
		if iv.Index != i || iv.Start != end {
			t.Fatalf("interval %d is #%d [%d,%d), want it to start at %d", i, iv.Index, iv.Start, iv.End, end)
		}
		end = iv.End
		instr += iv.Instructions()
	}
	if want := s.Snapshot().CoreInstructions[0]; instr != want {
		t.Errorf("interval instruction sum %d, core retired %d", instr, want)
	}
}

// TestTelemetrySteadyStateAllocs: once bound, the per-cycle Tick and
// even interval snapshots into the preallocated slots must not
// allocate.
func TestTelemetrySteadyStateAllocs(t *testing.T) {
	cfg := ScaledConfig(2, 16)
	cfg.LLCPolicy = "care"
	col := telemetry.NewCollector(telemetry.Options{Interval: 1000, Tag: "alloc"})
	cfg.Telemetry = col
	s, err := New(cfg, mcfTraces(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunInstructions(5000); err != nil {
		t.Fatal(err)
	}
	cycle := s.Cycle()
	if allocs := testing.AllocsPerRun(1000, func() {
		col.Tick(cycle) // below both watermarks: pure comparison path
	}); allocs != 0 {
		t.Errorf("steady-state Tick allocates %.1f objects/op", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		cycle += col.Interval()
		col.Tick(cycle) // boundary path: snapshot into a free slot
	}); allocs != 0 {
		t.Errorf("interval snapshot allocates %.1f objects/op", allocs)
	}
}

// TestTelemetryBindErrors: a collector cannot be shared between
// systems, and Bind validates its inputs.
func TestTelemetryBindTwice(t *testing.T) {
	cfg := ScaledConfig(1, 16)
	col := telemetry.NewCollector(telemetry.Options{Interval: 1000})
	cfg.Telemetry = col
	if _, err := New(cfg, mcfTraces(1)); err != nil {
		t.Fatal(err)
	}
	cfg2 := ScaledConfig(1, 16)
	cfg2.Telemetry = col
	if _, err := New(cfg2, mcfTraces(1)); err == nil {
		t.Fatal("reusing a bound collector must error")
	}
}
