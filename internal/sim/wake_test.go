package sim

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"care/internal/cache"
	"care/internal/checkpoint"
	"care/internal/faultinject"
	"care/internal/mem"
	"care/internal/policy"
	"care/internal/synth"
	"care/internal/telemetry"
	"care/internal/trace"
)

// stepEvery is the reference cycle for FuzzWakeMatchesStepping: it
// ticks every core, cache and the DRAM in every cycle, in step's order,
// and the telemetry collector after each, so no counter is ever
// accounted lazily and no component is passed over.
func stepEvery(s *System) {
	cycle := s.cycle
	if s.injector != nil {
		s.injector.OnCycle(cycle, s.llc)
	}
	for _, c := range s.cores {
		c.Tick(cycle)
	}
	for _, c := range s.l1s {
		c.Tick(cycle)
	}
	for _, c := range s.l2s {
		c.Tick(cycle)
	}
	s.llc.Tick(cycle)
	s.mem.Tick(cycle)
	if s.faultMem != nil {
		s.faultMem.Tick(cycle)
	}
	s.cycle++
	if s.tele != nil {
		s.tele.Tick(s.cycle)
	}
}

// stepUntil is the run loops' shape over adv: it advances until done
// holds or the cycle reaches limit, running the guard after every
// advance. It reports whether done held.
func stepUntil(s *System, limit uint64, adv func(*System, uint64), done func() bool) (bool, error) {
	for s.cycle < limit {
		if done() {
			return true, nil
		}
		adv(s, limit)
		if err := s.guard(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// engine drives a system through the three run loops. restores says
// whether runWake may checkpoint and restore the system after a
// quiesce.
type engine struct {
	run      func(s *System, n uint64) error
	drain    func(s *System) error
	quiesce  func(s *System) error
	restores bool
}

// simEngine is the simulator's own run loops.
var simEngine = engine{
	run: func(s *System, n uint64) error {
		_, err := s.RunInstructions(n)
		return err
	},
	drain:    (*System).Drain,
	quiesce:  (*System).Quiesce,
	restores: true,
}

// everyCycleEngine is RunInstructions, Drain and Quiesce over
// stepEvery instead of advance.
var everyCycleEngine = loopEngine(func(s *System, _ uint64) { stepEvery(s) })

// checkedEngine is the run loops over the simulator's advance, with
// every cache's wake checked after each advance: the stored wake must
// be what the cache's queue and park state give, and cacheWake must
// not be above it (never late).
func checkedEngine(t *testing.T) engine {
	e := loopEngine(func(s *System, limit uint64) {
		s.advance(limit)
		for _, c := range s.allCaches() {
			if err := c.CheckWake(); err != nil {
				t.Fatalf("after the advance to cycle %d: %v", s.cycle, err)
			}
		}
	})
	e.restores = true
	return e
}

// loopEngine is RunInstructions, Drain and Quiesce with each advance
// replaced by adv.
func loopEngine(adv func(s *System, limit uint64)) engine {
	return engine{run: func(s *System, n uint64) error {
		targets := make([]uint64, len(s.cores))
		for i, c := range s.cores {
			targets[i] = c.Retired() + n
		}
		_, err := stepUntil(s, s.cycle+n*maxCyclesPerInstr+loopSlack, adv, func() bool {
			for i, c := range s.cores {
				if c.Retired() < targets[i] && !c.Exhausted() {
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
		return s.componentErr()
	},
		drain: func(s *System) error {
			_, err := stepUntil(s, s.cycle+1_000_000, adv, func() bool {
				idle := s.llc.Drained() && s.mem.Drained()
				for i := range s.l1s {
					idle = idle && s.l1s[i].Drained() && s.l2s[i].Drained()
				}
				return idle && (s.faultMem == nil || s.faultMem.Held() == 0)
			})
			if err != nil {
				return err
			}
			return s.componentErr()
		},
		quiesce: func(s *System) error {
			// As in Quiesce, lazily counted cycles are brought current
			// on either side of each freeze switch.
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
			ok, err := stepUntil(s, s.cycle+quiesceLimit, adv, s.quiescent)
			switch {
			case err != nil:
				return err
			case !ok:
				return s.failf(ErrQuiesce, "system still busy after %d drain cycles", quiesceLimit)
			}
			return s.componentErr()
		}}
}

// wakeCase is one input of FuzzWakeMatchesStepping.
type wakeCase struct {
	cores          int
	policy         policy.Policy
	workload       string
	prefetch, tele bool
	quiesce        bool
	// restore checkpoints and restores the system after the quiesce,
	// under the engines that restore; tracked attaches a ticked
	// tracker to the LLC.
	restore, tracked  bool
	faults            string
	seed              uint64
	records           int
	warmup, measure   uint64
	telemetryInterval uint64
}

// wakePolicies are the LLC policies the experiments run.
var wakePolicies = []policy.Policy{
	policy.CARE, policy.MCARE, policy.LRU, policy.SHiPPP,
	policy.Hawkeye, policy.Glider, policy.Mockingjay, policy.SRRIP,
}

var wakeWorkloads = []string{"429.mcf", "401.bzip2", "462.libquantum", "473.astar"}

// wakeFaults holds one spec per fault class that acts inside the cycle
// loop, each early enough to fire in a short run, and no faults three
// times, so most inputs run fault-free.
var wakeFaults = []string{
	"", "", "",
	"seed=7,trace-flip=64",
	"seed=11,dram-delay=40,dram-delay-cycles=97",
	"seed=5,mshr-saturate=3000",
	"seed=9,trace-corrupt=900",
	"seed=1,dram-drop=50",
	"seed=2,meta-flip=2000",
	"seed=4,kill-at=6000",
}

func newWakeCase(cores, pol, flags, fault uint8, seed, n uint16) wakeCase {
	records := 200 + int(n%1500)
	return wakeCase{
		cores:             1 + int(cores%4),
		policy:            wakePolicies[int(pol)%len(wakePolicies)],
		workload:          wakeWorkloads[int(flags>>4)%len(wakeWorkloads)],
		prefetch:          flags&1 != 0,
		tele:              flags&2 != 0,
		quiesce:           flags&(4|8) != 0,
		restore:           flags&8 != 0,
		tracked:           flags&64 != 0,
		faults:            wakeFaults[int(fault)%len(wakeFaults)],
		seed:              uint64(seed),
		records:           records,
		warmup:            uint64(records) / 4,
		measure:           uint64(records) * uint64(1+n%6),
		telemetryInterval: 200 + uint64(n%7)*150,
	}
}

// tickCounter is a ticked cache.Tracker that counts its ticks.
type tickCounter struct{ ticks uint64 }

func (*tickCounter) OnAccessStart(int, mem.Kind, uint64)     {}
func (k *tickCounter) Tick(uint64, *cache.MSHR)              { k.ticks++ }
func (*tickCounter) OnMissComplete(*cache.MSHREntry, uint64) {}

// runWake runs wc under e and returns every observable output by name:
// the errors, the Result, the final cycle, each core's, cache's and the
// DRAM's counters, the CARE counters, the telemetry stream and the
// PML's checkpoint bytes.
func runWake(t *testing.T, wc wakeCase, e engine) map[string]string {
	t.Helper()
	prof, err := synth.Lookup(wc.workload)
	if err != nil {
		t.Fatal(err)
	}
	records := make([][]trace.Record, wc.cores)
	for i := range records {
		// Unequal finite traces, so cores exhaust at different times
		// and Drain has work left.
		sl, err := trace.Collect(synth.NewScaledGenerator(prof, wc.seed*8+uint64(i)+1, 32), wc.records+97*i)
		if err != nil {
			t.Fatal(err)
		}
		records[i] = sl.Records
	}
	// counter is attached to every system built, the restored one
	// included, so it counts the ticks of the whole run.
	counter := &tickCounter{}
	// build constructs the system over unread copies of the traces.
	build := func() *System {
		cfg := ScaledConfig(wc.cores, 32)
		for cfg.LLC.Sets&(cfg.LLC.Sets-1) != 0 {
			cfg.LLC.Sets &= cfg.LLC.Sets - 1 // three cores: round down to a power of two
		}
		cfg.LLCPolicy = wc.policy
		cfg.Prefetch = wc.prefetch
		if wc.tele {
			cfg.Telemetry = telemetry.NewCollector(telemetry.Options{Interval: wc.telemetryInterval, Tag: "wake"})
		}
		if wc.faults != "" {
			fc, err := faultinject.ParseSpec(wc.faults)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = &fc
			cfg.MaxCycles = 200_000
			cfg.WatchdogWindow = 5_000
			cfg.CheckInvariants = true
			cfg.InvariantEvery = 256
		}
		traces := make([]trace.Reader, wc.cores)
		for i := range traces {
			traces[i] = trace.NewSlice(records[i])
		}
		s, err := New(cfg, traces)
		if err != nil {
			t.Fatal(err)
		}
		if wc.tracked {
			s.llc.AddTracker(counter)
		}
		return s
	}
	s := build()
	// restore checkpoints the quiesced system and continues on a
	// fresh one restored from the bytes, when the engine restores and
	// the system can be checkpointed.
	restore := func() bool {
		if !wc.restore || !e.restores {
			return true
		}
		job := Job{Warmup: wc.warmup, Measure: wc.measure}
		var buf bytes.Buffer
		w, err := checkpoint.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		err = s.WriteCheckpoint(w, RunMeta{Phase: phaseWarmup, Warmup: job.Warmup, Measure: job.Measure})
		if errors.Is(err, checkpoint.ErrNotCheckpointable) {
			return true
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		r, err := checkpoint.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		restored := build()
		if _, err := restored.ReadCheckpoint(r, job); err != nil {
			t.Fatalf("%+v: restore at cycle %d: %v", wc, s.cycle, err)
		}
		s = restored
		return true
	}
	out := map[string]string{}
	errs := make([]error, 0, 4)
	phase := func(f func() error) bool {
		err := f()
		errs = append(errs, err)
		return err == nil
	}
	_ = phase(func() error { return e.run(s, wc.warmup) }) &&
		(!wc.quiesce || phase(func() error { return e.quiesce(s) }) && restore()) &&
		phase(func() error { s.ResetStats(); return e.run(s, wc.measure) }) &&
		phase(func() error { return e.drain(s) })
	// A tracker is ticked on stepped cycles only, never twice in one.
	if wc.tracked && (counter.ticks == 0 || counter.ticks > s.cycle) {
		t.Fatalf("%+v: tracker ticked %d times in %d cycles", wc, counter.ticks, s.cycle)
	}
	var jsonl bytes.Buffer
	if s.tele != nil {
		s.closeTelemetry()
		if err := writeJSONL(&jsonl, s.tele); err != nil {
			t.Fatal(err)
		}
	}
	out["errors"] = fmt.Sprint(errs)
	out["result"] = fmt.Sprintf("%+v", s.Snapshot())
	out["cycle"] = fmt.Sprint(s.Cycle())
	for i, c := range s.cores {
		out[fmt.Sprintf("core%d", i)] = fmt.Sprintf("%+v", *c.Stats())
	}
	for _, c := range s.allCaches() {
		out[c.Name] = fmt.Sprintf("%+v", *c.Stats())
	}
	out["dram"] = fmt.Sprintf("%+v", *s.mem.Stats())
	if cs := s.CAREStats(); cs != nil {
		out["care"] = fmt.Sprintf("%+v", *cs)
	}
	out["telemetry"] = jsonl.String()
	pml, err := checkpoint.Encode(s.pml.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	out["pmc"] = fmt.Sprintf("%x", pml)
	return out
}

// FuzzWakeMatchesStepping is the differential check of the lazy cycle
// loop: ticking only the components that can act and fast-forwarding
// dead cycles must give byte-identical outputs to ticking every
// component every cycle, over core counts, LLC policies, prefetching,
// faults, telemetry, a quiesce, a checkpoint restore on the lazy side
// and a ticked tracker on the LLC. The lazy side runs twice: under the
// simulator's own run loops, and under checkedEngine, which checks the
// stored cache wakes after every advance.
func FuzzWakeMatchesStepping(f *testing.F) {
	for i := range wakePolicies {
		f.Add(uint8(i), uint8(i), uint8(i*17), uint8(0), uint16(i), uint16(300+i*131))
	}
	for i := range wakeFaults {
		f.Add(uint8(3), uint8(0), uint8(0x03+i*16), uint8(i), uint16(40+i), uint16(800))
	}
	f.Add(uint8(1), uint8(1), uint8(0x07), uint8(0), uint16(5), uint16(1200))
	// Restores, with and without telemetry, a tracker and faults.
	f.Add(uint8(1), uint8(0), uint8(0x08), uint8(0), uint16(6), uint16(900))
	f.Add(uint8(3), uint8(2), uint8(0x4b), uint8(0), uint16(7), uint16(1100))
	f.Add(uint8(2), uint8(4), uint8(0x1a), uint8(4), uint16(8), uint16(700))
	f.Add(uint8(0), uint8(6), uint8(0x49), uint8(5), uint16(9), uint16(1300))
	f.Fuzz(func(t *testing.T, cores, pol, flags, fault uint8, seed, n uint16) {
		wc := newWakeCase(cores, pol, flags, fault, seed, n)
		want := runWake(t, wc, everyCycleEngine)
		for _, lazy := range []struct {
			name string
			e    engine
		}{{"run loops", simEngine}, {"checked advance", checkedEngine(t)}} {
			got := runWake(t, wc, lazy.e)
			for k, w := range want {
				if g := got[k]; g != w {
					t.Fatalf("%+v: %s: %s differs from stepping every cycle:\ngot:  %.2000s\nwant: %.2000s", wc, lazy.name, k, g, w)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%+v: %s: %d outputs, stepping every cycle gives %d", wc, lazy.name, len(got), len(want))
			}
		}
	})
}

// TestTrackedLLCTickedEveryStep: a ticked tracker on the LLC is ticked
// on every stepped cycle, those in which no cache is due included, and
// on no skipped one. horizon does not consult trackers, so a tracked
// run still fast-forwards.
func TestTrackedLLCTickedEveryStep(t *testing.T) {
	s, err := New(ScaledConfig(2, 32), mcfTraces(2))
	if err != nil {
		t.Fatal(err)
	}
	counter := &tickCounter{}
	s.llc.AddTracker(counter)
	const limit = 20_000
	var stepped uint64
	for s.cycle < limit {
		if h := s.horizon(limit); h > s.cycle {
			s.skipTo(h)
			continue
		}
		s.step()
		stepped++
	}
	if counter.ticks != stepped {
		t.Fatalf("tracker ticked %d times in %d stepped cycles", counter.ticks, stepped)
	}
	if stepped == limit {
		t.Fatal("the tracked run stepped every cycle; it must still fast-forward")
	}
}
