package cpu

import (
	"errors"
	"fmt"
	"testing"

	"care/internal/checkpoint"
	"care/internal/mem"
	"care/internal/trace"
)

// instantMem answers every load after `lat` cycles via a tiny event
// list; the test advances it manually.
type instantMem struct {
	lat     uint64
	pending []struct {
		req   *mem.Request
		ready uint64
	}
	loads, stores int
	serialized    []mem.Addr // order of load arrivals
}

func (m *instantMem) Access(req *mem.Request, cycle uint64) {
	if req.Kind == mem.Store {
		m.stores++
		req.Respond(cycle)
		return
	}
	m.loads++
	m.serialized = append(m.serialized, req.Addr)
	m.pending = append(m.pending, struct {
		req   *mem.Request
		ready uint64
	}{req, cycle + m.lat})
}

func (m *instantMem) Tick(cycle uint64) {
	rest := m.pending[:0]
	for _, p := range m.pending {
		if p.ready <= cycle {
			p.req.Respond(cycle)
		} else {
			rest = append(rest, p)
		}
	}
	m.pending = rest
}

func runCore(c *Core, m *instantMem, maxCycles uint64) {
	for cy := uint64(0); cy < maxCycles && !c.Exhausted(); cy++ {
		c.Tick(cy)
		m.Tick(cy)
	}
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params should panic")
		}
	}()
	New(0, Params{}, trace.NewSlice(nil), &instantMem{})
}

func TestRetiresAllInstructions(t *testing.T) {
	recs := []trace.Record{
		{PC: 1, Addr: 0x1000, NonMem: 5},
		{PC: 2, Addr: 0x2000, NonMem: 3, IsWrite: true},
		{PC: 3, Addr: 0x3000, NonMem: 0},
	}
	src := trace.NewSlice(recs)
	m := &instantMem{lat: 3}
	c := New(0, DefaultParams(), src, m)
	runCore(c, m, 10000)
	if !c.Exhausted() {
		t.Fatal("core did not drain")
	}
	want := src.Instructions()
	if c.Retired() != want {
		t.Fatalf("retired %d, want %d", c.Retired(), want)
	}
	s := c.Stats()
	if s.Loads != 2 || s.Stores != 1 {
		t.Fatalf("loads/stores = %d/%d, want 2/1", s.Loads, s.Stores)
	}
	if m.loads != 2 || m.stores != 1 {
		t.Fatalf("memory saw %d loads %d stores", m.loads, m.stores)
	}
}

func TestIPCReflectsMemoryLatency(t *testing.T) {
	// 100 independent loads, no non-mem instructions.
	mkTrace := func() trace.Reader {
		recs := make([]trace.Record, 100)
		for i := range recs {
			recs[i] = trace.Record{PC: 1, Addr: mem.Addr(i * 0x1000)}
		}
		return trace.NewSlice(recs)
	}
	fast := &instantMem{lat: 1}
	cf := New(0, DefaultParams(), mkTrace(), fast)
	runCore(cf, fast, 100000)
	slow := &instantMem{lat: 200}
	cs := New(0, DefaultParams(), mkTrace(), slow)
	runCore(cs, slow, 100000)
	if cf.Stats().Cycles >= cs.Stats().Cycles {
		t.Fatalf("higher latency must cost cycles: fast=%d slow=%d", cf.Stats().Cycles, cs.Stats().Cycles)
	}
	if cf.Stats().IPC() <= cs.Stats().IPC() {
		t.Fatal("IPC must drop with memory latency")
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// 64 independent loads at latency 100: overlapped execution must
	// take far less than 64*100 cycles.
	recs := make([]trace.Record, 64)
	for i := range recs {
		recs[i] = trace.Record{PC: 1, Addr: mem.Addr(i * 0x1000)}
	}
	m := &instantMem{lat: 100}
	c := New(0, DefaultParams(), trace.NewSlice(recs), m)
	runCore(c, m, 100000)
	if c.Stats().Cycles > 1000 {
		t.Fatalf("independent loads should overlap: took %d cycles", c.Stats().Cycles)
	}
}

func TestDependentLoadsSerialise(t *testing.T) {
	mk := func(dep bool) []trace.Record {
		recs := make([]trace.Record, 20)
		for i := range recs {
			recs[i] = trace.Record{PC: 1, Addr: mem.Addr(i * 0x1000), DependsPrev: dep}
		}
		return recs
	}
	mi := &instantMem{lat: 50}
	ci := New(0, DefaultParams(), trace.NewSlice(mk(false)), mi)
	runCore(ci, mi, 100000)
	md := &instantMem{lat: 50}
	cd := New(0, DefaultParams(), trace.NewSlice(mk(true)), md)
	runCore(cd, md, 100000)
	// The dependent chain must take roughly 20*50 cycles; the
	// independent one roughly 50.
	if cd.Stats().Cycles < 10*ci.Stats().Cycles {
		t.Fatalf("pointer chase should serialise: dep=%d indep=%d cycles",
			cd.Stats().Cycles, ci.Stats().Cycles)
	}
	// Dependent issue order must follow program order strictly.
	for i := 1; i < len(md.serialized); i++ {
		if md.serialized[i] < md.serialized[i-1] {
			t.Fatal("dependent loads issued out of order")
		}
	}
}

func TestROBBoundsConcurrency(t *testing.T) {
	// With a 4-entry ROB, at most 4 loads can be in flight.
	recs := make([]trace.Record, 40)
	for i := range recs {
		recs[i] = trace.Record{PC: 1, Addr: mem.Addr(i * 0x1000)}
	}
	m := &instantMem{lat: 30}
	c := New(0, Params{IssueWidth: 8, ROBSize: 4}, trace.NewSlice(recs), m)
	maxInflight := 0
	for cy := uint64(0); cy < 100000 && !c.Exhausted(); cy++ {
		c.Tick(cy)
		if len(m.pending) > maxInflight {
			maxInflight = len(m.pending)
		}
		m.Tick(cy)
	}
	if maxInflight > 4 {
		t.Fatalf("ROB should bound in-flight loads to 4, saw %d", maxInflight)
	}
	if c.Stats().ROBStallCycles == 0 {
		t.Fatal("expected ROB stalls with a tiny ROB")
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	recs := []trace.Record{
		{PC: 1, Addr: 0x1000, IsWrite: true},
		{PC: 2, Addr: 0x2000, IsWrite: true},
	}
	m := &instantMem{lat: 1000} // irrelevant: stores respond instantly
	c := New(0, DefaultParams(), trace.NewSlice(recs), m)
	runCore(c, m, 100)
	if !c.Exhausted() {
		t.Fatal("stores should retire without waiting")
	}
}

func TestResetStats(t *testing.T) {
	recs := []trace.Record{{PC: 1, Addr: 0x1000, NonMem: 3}}
	m := &instantMem{lat: 1}
	c := New(0, DefaultParams(), trace.NewSlice(recs), m)
	runCore(c, m, 100)
	if c.Stats().Retired == 0 {
		t.Fatal("expected retirement")
	}
	c.ResetStats()
	if c.Stats().Retired != 0 || c.Stats().Cycles != 0 {
		t.Fatal("ResetStats should zero counters")
	}
}

func TestIPCZeroCycles(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Fatal("IPC with zero cycles must be 0")
	}
}

// brokenReader serves a few records, then fails mid-stream the way a
// truncated or corrupted trace file does.
type brokenReader struct {
	recs []trace.Record
	n    int
}

func (r *brokenReader) Next() (trace.Record, error) {
	if r.n < len(r.recs) {
		r.n++
		return r.recs[r.n-1], nil
	}
	return trace.Record{}, fmt.Errorf("%w: record %d truncated", trace.ErrCorrupt, r.n)
}

func TestTraceErrorTerminatesStream(t *testing.T) {
	recs := []trace.Record{
		{PC: 1, Addr: 0x1000},
		{PC: 2, Addr: 0x2000},
	}
	m := &instantMem{lat: 2}
	c := New(0, DefaultParams(), &brokenReader{recs: recs}, m)
	runCore(c, m, 1000) // must not panic
	if !c.Exhausted() {
		t.Fatal("core should stop issuing after a trace error")
	}
	if c.Retired() != 2 {
		t.Fatalf("retired %d, want the 2 records before the error", c.Retired())
	}
	err := c.Err()
	if err == nil {
		t.Fatal("core must remember the trace error")
	}
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("error should wrap trace.ErrCorrupt, got %v", err)
	}
}

func TestEOFIsNotAnError(t *testing.T) {
	recs := []trace.Record{{PC: 1, Addr: 0x1000}}
	m := &instantMem{lat: 1}
	c := New(0, DefaultParams(), trace.NewSlice(recs), m)
	runCore(c, m, 100)
	if !c.Exhausted() {
		t.Fatal("core should drain")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("clean EOF must not be an error, got %v", err)
	}
}

// TestSkippedStallEqualsTicks: a Stalled core that is not ticked for k
// cycles and then ticked once ends with the counters of k+1 Ticks,
// whether the ROB is full, dispatch is frozen (with a full ROB, which
// then counts no ROB stall) or the trace is exhausted. Both cores go
// back to sleep, and a load's completion wakes them alike.
func TestSkippedStallEqualsTicks(t *testing.T) {
	loads := func(n int) []trace.Record {
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{PC: 1, Addr: mem.Addr(0x1000 * (i + 1)), NonMem: 3}
		}
		return recs
	}
	for _, tc := range []struct {
		name   string
		recs   []trace.Record
		freeze bool
	}{
		{"full ROB", loads(100), false},
		{"frozen", loads(100), true},
		{"exhausted", loads(2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// stalled returns a core ticked until it fell asleep, and the
			// first cycle it was not ticked at. No load is ever answered.
			stalled := func() (*Core, *instantMem, uint64) {
				m := &instantMem{lat: 1 << 40}
				c := New(0, DefaultParams(), trace.NewSlice(tc.recs), m)
				cy := uint64(0)
				for ; c.Awake(); cy++ {
					if cy == 1000 {
						t.Fatal("core never stalled")
					}
					c.Tick(cy)
				}
				if tc.freeze {
					c.SkipCycles(cy)
					c.SetFetchFrozen(true)
					if !c.Awake() {
						t.Fatal("SetFetchFrozen must wake the core")
					}
				}
				return c, m, cy
			}
			ticked, tm, from := stalled()
			skipped, sm, _ := stalled()
			const k = 37
			base := skipped.Stats().ROBStallCycles
			for cy := from; cy <= from+k; cy++ {
				ticked.Tick(cy)
			}
			skipped.Tick(from + k)
			if *ticked.Stats() != *skipped.Stats() {
				t.Fatalf("stats diverge:\nticked:  %+v\nskipped: %+v", *ticked.Stats(), *skipped.Stats())
			}
			if ticked.Awake() || skipped.Awake() {
				t.Fatal("a core still Stalled after its Tick must be asleep")
			}
			want := uint64(0)
			if tc.name == "full ROB" {
				want = k + 1
			}
			if got := skipped.Stats().ROBStallCycles - base; got != want {
				t.Fatalf("%d ROB stall cycles over the window, want %d", got, want)
			}
			// Answer the ROB head on both: the completion wakes the core,
			// and the next Tick retires alike.
			at := from + k + 1
			for _, p := range []struct {
				c *Core
				m *instantMem
			}{{ticked, tm}, {skipped, sm}} {
				p.m.pending[0].req.Respond(at)
				if !p.c.Awake() {
					t.Fatal("Complete must wake the core")
				}
				p.c.Tick(at + 1)
			}
			if *ticked.Stats() != *skipped.Stats() || ticked.Retired() == 0 {
				t.Fatalf("after the wake-up:\nticked:  %+v\nskipped: %+v", *ticked.Stats(), *skipped.Stats())
			}
		})
	}
}

// TestCheckpointRestoresOnlyFreshCores: a drained core's frame,
// trace position included, restores into a freshly constructed core,
// which then reads the same next record; a core that has already run
// refuses it with ErrMismatch.
func TestCheckpointRestoresOnlyFreshCores(t *testing.T) {
	recs := make([]trace.Record, 40)
	for i := range recs {
		recs[i] = trace.Record{PC: 0x400000, Addr: mem.Addr(i) * 64, NonMem: 2}
	}
	m := &instantMem{lat: 3}
	c := New(0, DefaultParams(), trace.NewSlice(recs), m)
	for cy := uint64(0); cy < 30; cy++ {
		c.Tick(cy)
		m.Tick(cy)
	}
	c.SetFetchFrozen(true)
	for cy := uint64(30); !c.Quiesced(); cy++ {
		c.Tick(cy)
		m.Tick(cy)
	}
	payload, err := checkpoint.Encode(c.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewSlice(recs)
	if err := checkpoint.Decode(payload, New(0, DefaultParams(), src, m).Checkpoint); err != nil {
		t.Fatal(err)
	}
	next, _ := c.src.Next()
	if got, _ := src.Next(); got != next {
		t.Fatalf("restored trace reads %+v next, want %+v", got, next)
	}
	if err := checkpoint.Decode(payload, c.Checkpoint); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("restore into a core that ran: got %v, want ErrMismatch", err)
	}
}
