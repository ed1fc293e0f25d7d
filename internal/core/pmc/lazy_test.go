package pmc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"care/internal/cache"
	"care/internal/mem"
)

// perCycle is Algorithm 1 as a plain per-cycle walk: every Tick adds
// each outstanding miss's share for that cycle. It is the reference
// the event-driven Logic must match bit for bit.
type perCycle struct {
	latency              uint64
	cores                int
	baseEnds             [][]uint64
	basePhases           int
	activePureMissCycles []uint64
	overlapCycles        []uint64
	accessCount          []uint64
	samples              []Sample
}

func newPerCycle(latency uint64, cores int) *perCycle {
	return &perCycle{
		latency:              latency,
		cores:                cores,
		baseEnds:             make([][]uint64, cores),
		activePureMissCycles: make([]uint64, cores),
		overlapCycles:        make([]uint64, cores),
		accessCount:          make([]uint64, cores),
	}
}

func (r *perCycle) OnAccessStart(core int, _ mem.Kind, cycle uint64) {
	if core < 0 || core >= r.cores {
		core = 0
	}
	r.baseEnds[core] = append(r.baseEnds[core], cycle+r.latency)
	r.basePhases++
	r.accessCount[core]++
}

func (r *perCycle) expireBase(x int, cycle uint64) int {
	ends := r.baseEnds[x]
	i := 0
	for i < len(ends) && ends[i] <= cycle {
		i++
	}
	r.baseEnds[x] = ends[i:]
	r.basePhases -= i
	return len(ends) - i
}

func (r *perCycle) Tick(cycle uint64, m *cache.MSHR) {
	if r.basePhases == 0 && m.Len() == 0 {
		return
	}
	states := make([]coreState, r.cores)
	for x := range states {
		active := r.expireBase(x, cycle)
		n := m.OutstandingForCore(x)
		states[x] = coreState{baseActive: active > 0, n: n}
		if n > 0 {
			states[x].inv = 1.0 / float64(n)
		}
		if active == 0 && n > 0 {
			r.activePureMissCycles[x]++
		}
		if inFlight := active + n; inFlight > 1 {
			r.overlapCycles[x] += uint64(inFlight - 1)
		}
	}
	m.ForEach(func(e *cache.MSHREntry) {
		x := e.Core
		if x < 0 || x >= r.cores {
			x = 0
		}
		st := states[x]
		if st.n <= 0 {
			return
		}
		e.MLPCost += st.inv
		if st.baseActive {
			e.HitOverlapped = true
			return
		}
		e.PMC += st.inv
		e.PureCycles++
	})
}

func (r *perCycle) OnMissComplete(e *cache.MSHREntry, cycle uint64) {
	r.samples = append(r.samples, Sample{Core: e.Core, PC: e.PC, PMC: e.PMC, Pure: e.PureCycles > 0, Cycle: cycle})
}

// byteStream hands out bounded choices from fuzz input.
type byteStream []byte

func (s *byteStream) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	v := int((*s)[0]) % n
	*s = (*s)[1:]
	return v
}

// lazyCoverage counts what a stream exercised, so the fixed-seed test
// can show it is not vacuous.
type lazyCoverage struct {
	completions, pure, overlapped, syncs, crossingSpans int
}

// checkLazyMatchesPerCycle replays the operation stream encoded in
// data through Logic and the per-cycle reference, each on its own
// MSHR file fed the identical allocations, and fails t on the first
// difference in an entry's metrics (bitwise, at every completion and
// after every Sync), a per-core counter or the samples.
func checkLazyMatchesPerCycle(t *testing.T, data []byte) lazyCoverage {
	t.Helper()
	in := byteStream(data)
	cores := 1 + in.next(4)
	latency := uint64(in.next(6))
	capacity := 1 + in.next(16)
	// This byte once switched MLP tracking, which is now always on;
	// consuming it keeps the seeded streams decoding as they did.
	in.next(2)

	lazy := New(latency, cores)
	var lazySamples []Sample
	lazy.OnSample = func(s Sample) { lazySamples = append(lazySamples, s) }
	ref := newPerCycle(latency, cores)
	ml, mr := cache.NewMSHR(capacity, cores), cache.NewMSHR(capacity, cores)

	var cov lazyCoverage
	var live []uint64 // outstanding blocks, in allocation order
	block, cycle := uint64(0), uint64(0)

	sameEntry := func(what string, el, er *cache.MSHREntry) {
		t.Helper()
		if math.Float64bits(el.PMC) != math.Float64bits(er.PMC) ||
			math.Float64bits(el.MLPCost) != math.Float64bits(er.MLPCost) ||
			el.PureCycles != er.PureCycles || el.HitOverlapped != er.HitOverlapped {
			t.Fatalf("cycle %d, %s of block %d: lazy PMC=%v MLP=%v pure=%d hit=%v, per-cycle PMC=%v MLP=%v pure=%d hit=%v",
				cycle, what, el.Block, el.PMC, el.MLPCost, el.PureCycles, el.HitOverlapped,
				er.PMC, er.MLPCost, er.PureCycles, er.HitOverlapped)
		}
	}
	allocate := func() {
		if ml.Full() {
			return
		}
		block++
		req := &mem.Request{Addr: mem.Addr(block << mem.BlockBits), PC: mem.Addr(block), Core: in.next(cores+2) - 1, Kind: mem.Load}
		if _, err := ml.Allocate(req, cycle); err != nil {
			t.Fatal(err)
		}
		if _, err := mr.Allocate(req, cycle); err != nil {
			t.Fatal(err)
		}
		live = append(live, block)
	}
	complete := func() {
		if len(live) == 0 {
			return
		}
		i := in.next(len(live))
		b := live[i]
		live = append(live[:i], live[i+1:]...)
		el, er := ml.Lookup(b), mr.Lookup(b)
		lazy.OnMissComplete(el, cycle)
		ref.OnMissComplete(er, cycle)
		sameEntry("completion", el, er)
		cov.completions++
		if el.PureCycles > 0 {
			cov.pure++
		}
		if el.HitOverlapped {
			cov.overlapped++
		}
		ml.Release(el)
		mr.Release(er)
	}
	sync := func() {
		lazy.Sync(ml)
		for _, b := range live {
			sameEntry("sync", ml.Lookup(b), mr.Lookup(b))
		}
		cov.syncs++
	}
	sameCounters := func() {
		t.Helper()
		for x := 0; x < cores; x++ {
			if lazy.activePureMissCycles[x] != ref.activePureMissCycles[x] ||
				lazy.overlapCycles[x] != ref.overlapCycles[x] ||
				lazy.accessCount[x] != ref.accessCount[x] {
				t.Fatalf("cycle %d, core %d counters: lazy (pure %d, overlap %d, accesses %d), per-cycle (%d, %d, %d)",
					cycle, x, lazy.activePureMissCycles[x], lazy.overlapCycles[x], lazy.accessCount[x],
					ref.activePureMissCycles[x], ref.overlapCycles[x], ref.accessCount[x])
			}
		}
	}

	for len(in) > 0 {
		switch in.next(8) {
		case 0:
			core := in.next(cores+2) - 1
			lazy.OnAccessStart(core, mem.Load, cycle)
			ref.OnAccessStart(core, mem.Load, cycle)
		case 1:
			allocate()
		case 2:
			complete()
		case 3:
			// A fill frees a slot that an allocation reuses in the same
			// cycle.
			complete()
			allocate()
		case 4:
			sync()
		case 5, 6:
			lazy.Tick(cycle, ml)
			ref.Tick(cycle, mr)
			cycle++
			sameCounters()
		case 7:
			// A dead window, as the cache's SkipCycles hands it over.
			to := cycle + 1 + uint64(in.next(24))
			for _, ends := range ref.baseEnds {
				for _, e := range ends {
					if e > cycle && e < to {
						cov.crossingSpans++
					}
				}
			}
			lazy.TickSpan(cycle, to, ml)
			for ; cycle < to; cycle++ {
				ref.Tick(cycle, mr)
			}
			sameCounters()
		}
	}
	sync()
	for len(live) > 0 {
		complete()
	}
	if !reflect.DeepEqual(lazySamples, ref.samples) {
		t.Fatalf("samples diverge:\nlazy:      %+v\nper-cycle: %+v", lazySamples, ref.samples)
	}
	return cov
}

// TestLazyMatchesPerCycle: over random multi-core streams, the
// event-driven PML gives every entry bitwise the metrics a per-cycle
// walk gives it, and the same counters and samples.
func TestLazyMatchesPerCycle(t *testing.T) {
	var cov lazyCoverage
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		c := checkLazyMatchesPerCycle(t, data)
		cov.completions += c.completions
		cov.pure += c.pure
		cov.overlapped += c.overlapped
		cov.syncs += c.syncs
		cov.crossingSpans += c.crossingSpans
	}
	if cov.pure == 0 || cov.overlapped == 0 || cov.syncs == 0 || cov.crossingSpans == 0 {
		t.Fatalf("streams did not exercise every path: %+v", cov)
	}
}

// FuzzLazyMatchesPerCycle is TestLazyMatchesPerCycle over fuzzed
// operation streams.
func FuzzLazyMatchesPerCycle(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkLazyMatchesPerCycle(t, data) })
}
