package faultinject

import (
	"errors"
	"strings"
	"testing"

	"care/internal/mem"
	"care/internal/trace"
)

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7, dram-drop=200,trace-flip=64,meta-flip=5000")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, DRAMDropEvery: 200, TraceFlipEvery: 64, MetaFlipAt: 5000}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed config should be enabled")
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"dram-drop", "dram-drop=x", "warp-core=1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

// FuzzParseSpec: the -faults decoder never panics, refuses only with
// an error prefixed "faultinject:", and parses an accepted spec to the
// same Config every time.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"seed=7, dram-drop=200,trace-flip=64,meta-flip=5000",
		"dram-drop", "dram-drop=x", "warp-core=1",
		"server-kill-append=3,journal-tear=5,worker-panic=2",
		"net-drop-req=7,net-drop-reply=5,net-dup=3,net-delay=2,net-delay-ms=40,net-partition-after=9,net-partition-ms=1200,append-err=4",
		"", ",,", " seed = 18446744073709551615 ", "seed=18446744073709551616", "kill-at=-1", "=5", "seed==1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "faultinject: ") {
				t.Fatalf("ParseSpec(%q) refused with %q, want the faultinject: prefix", spec, err)
			}
			if cfg != (Config{}) {
				t.Fatalf("ParseSpec(%q) refused but returned %+v", spec, cfg)
			}
			return
		}
		if again, err := ParseSpec(spec); err != nil || again != cfg {
			t.Fatalf("ParseSpec(%q) twice: %+v then %+v, %v", spec, cfg, again, err)
		}
	})
}

func TestEnabledNilSafe(t *testing.T) {
	var cfg *Config
	if cfg.Enabled() {
		t.Fatal("nil config must be disabled")
	}
	if (&Config{Seed: 42}).Enabled() {
		t.Fatal("a bare seed configures no fault")
	}
}

func TestWrapTraceIsIdentityWhenDisabled(t *testing.T) {
	in := New(Config{DRAMDropEvery: 10}) // no trace faults
	src := trace.NewSlice([]trace.Record{{PC: 1}})
	if got := in.WrapTrace(src); got != trace.Reader(src) {
		t.Fatal("no trace faults configured: reader must pass through unwrapped")
	}
}

func TestTraceHardCorruption(t *testing.T) {
	in := New(Config{TraceCorruptAfter: 2})
	recs := []trace.Record{{PC: 1}, {PC: 2}, {PC: 3}}
	r := in.WrapTrace(trace.NewSlice(recs))
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("record %d: unexpected error %v", i, err)
		}
	}
	_, err := r.Next()
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("want trace.ErrCorrupt after 2 records, got %v", err)
	}
	if in.Stats().TraceCorruptions != 1 {
		t.Fatal("corruption not counted")
	}
}

func TestTraceBitFlipsAreDeterministic(t *testing.T) {
	read := func() []mem.Addr {
		in := New(Config{Seed: 3, TraceFlipEvery: 2})
		recs := make([]trace.Record, 8)
		for i := range recs {
			recs[i] = trace.Record{PC: 1, Addr: mem.Addr(i << 12)}
		}
		r := in.WrapTrace(trace.NewSlice(recs))
		var out []mem.Addr
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			out = append(out, rec.Addr)
		}
		if in.Stats().RecordsFlipped != 4 {
			t.Fatalf("flips = %d, want 4", in.Stats().RecordsFlipped)
		}
		return out
	}
	a, b := read(), read()
	flipped := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed must flip the same bits: %v vs %v", a, b)
		}
		if a[i] != mem.Addr(i<<12) {
			flipped++
		}
	}
	if flipped != 4 {
		t.Fatalf("%d records differ from the original, want 4", flipped)
	}
}

// sink is a trivial cache.Level recording what reaches it.
type sink struct{ reqs []*mem.Request }

func (s *sink) Access(req *mem.Request, cycle uint64) { s.reqs = append(s.reqs, req) }
func (s *sink) Tick(cycle uint64)                     {}

func TestDropSwallowsResponse(t *testing.T) {
	in := New(Config{DRAMDropEvery: 2})
	lower := &sink{}
	m := in.WrapMemory(lower)
	responded := make([]bool, 4)
	for i := range responded {
		i := i
		m.Access(&mem.Request{Addr: mem.Addr(i << 6), Kind: mem.Load,
			Owner: mem.CompleteFunc(func(uint32, uint64) { responded[i] = true })}, 0)
	}
	for _, req := range lower.reqs {
		req.Respond(10)
	}
	want := []bool{true, false, true, false} // every 2nd dropped
	for i, w := range want {
		if responded[i] != w {
			t.Fatalf("responded = %v, want %v", responded, want)
		}
	}
	if in.Stats().ResponsesDropped != 2 {
		t.Fatalf("drops = %d, want 2", in.Stats().ResponsesDropped)
	}
}

func TestDelayDefersResponseUntilTick(t *testing.T) {
	in := New(Config{DRAMDelayEvery: 1, DRAMDelayCycles: 100})
	lower := &sink{}
	m := in.WrapMemory(lower)
	var doneAt uint64
	m.Access(&mem.Request{Addr: 0x40, Kind: mem.Load,
		Owner: mem.CompleteFunc(func(_ uint32, cy uint64) { doneAt = cy })}, 0)
	lower.reqs[0].Respond(10)
	if doneAt != 0 {
		t.Fatal("delayed response fired early")
	}
	if m.Held() != 1 {
		t.Fatalf("held = %d, want 1", m.Held())
	}
	m.Tick(50) // not mature yet
	if doneAt != 0 {
		t.Fatal("response released before the delay elapsed")
	}
	m.Tick(110)
	if doneAt != 110 || m.Held() != 0 {
		t.Fatalf("doneAt=%d held=%d, want release at 110", doneAt, m.Held())
	}
}

func TestWritebacksNeverFaulted(t *testing.T) {
	in := New(Config{DRAMDropEvery: 1})
	lower := &sink{}
	m := in.WrapMemory(lower)
	ok := false
	m.Access(&mem.Request{Addr: 0x40, Kind: mem.Writeback,
		Owner: mem.CompleteFunc(func(uint32, uint64) { ok = true })}, 0)
	lower.reqs[0].Respond(1)
	if !ok {
		t.Fatal("writeback responses must never be dropped")
	}
}
