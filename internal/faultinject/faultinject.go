// Package faultinject deterministically injects faults into a
// running simulation so the integrity layer (forward-progress
// watchdog, runtime invariant checker, typed error propagation) can
// be exercised under adversarial conditions rather than trusted on
// faith.
//
// Every fault is driven by counters and a seeded xorshift generator,
// so a given Config produces the identical fault sequence on every
// run — chaos tests are as reproducible as ordinary ones. The
// injector is wired into sim.Config behind an off-by-default pointer;
// a nil config costs nothing on the hot path.
//
// Fault classes:
//
//   - trace corruption: flip address bits in records, or hard-fail
//     the stream with trace.ErrCorrupt after N records;
//   - DRAM misbehaviour: drop every Nth read response (the request's
//     Done callback never fires — an injected deadlock) or delay it
//     by a fixed number of cycles;
//   - MSHR saturation: permanently claim every free LLC MSHR entry
//     at a chosen cycle (a stuck miss-handling pipeline);
//   - metadata corruption: flip a replacement-metadata or tag bit at
//     a chosen cycle, violating the invariants the runtime checker
//     enforces.
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"care/internal/cache"
	"care/internal/mem"
	"care/internal/trace"
)

// Config selects which faults to inject. The zero value injects
// nothing. All counters are in "events of that kind" (records served,
// read responses) except the *At fields, which are absolute cycles.
type Config struct {
	// Seed drives the deterministic bit-position choices.
	Seed uint64
	// TraceCorruptAfter makes each wrapped trace reader fail with
	// trace.ErrCorrupt after this many records (0 = off).
	TraceCorruptAfter uint64
	// TraceFlipEvery flips one address bit in every Nth record served
	// by each wrapped reader (0 = off).
	TraceFlipEvery uint64
	// DRAMDropEvery drops every Nth DRAM read response: the waiting
	// MSHR entry is never released, wedging the hierarchy (0 = off).
	DRAMDropEvery uint64
	// DRAMDelayEvery delays every Nth DRAM read response by
	// DRAMDelayCycles cycles (0 = off).
	DRAMDelayEvery uint64
	// DRAMDelayCycles is the added latency for delayed responses
	// (default 10_000 when DRAMDelayEvery is set).
	DRAMDelayCycles uint64
	// MSHRSaturateAt permanently fills the LLC MSHR file at this
	// cycle (0 = off).
	MSHRSaturateAt uint64
	// MetaFlipAt corrupts LLC replacement metadata (or, when the
	// policy has no metadata hook, a tag bit) at this cycle (0 = off).
	MetaFlipAt uint64
	// KillAtCycle terminates the simulation with ErrKilled at this
	// cycle, modelling a mid-run crash (0 = off). It fires once; a
	// supervisor retrying from a checkpoint clears it for the retry.
	KillAtCycle uint64
	// CkptCorruptNth flips one bit in the Nth checkpoint file written
	// by the run, 1-based (0 = off). The write itself succeeds; the
	// damage surfaces as a CRC failure when something tries to resume.
	CkptCorruptNth uint64

	// ---- server-level crash classes (care-server chaos testing) ----

	// ServerKillAppendNth hard-kills the server process immediately
	// after its Nth journal append is durable but before the append is
	// acknowledged or applied to in-memory state, 1-based (0 = off):
	// the classic crash-between-commit-and-ack window recovery must
	// close by journal replay.
	ServerKillAppendNth uint64
	// ServerTearAppendNth truncates the journal mid-record after its
	// Nth append and then hard-kills the process, 1-based (0 = off):
	// a torn write during a crash. Replay must discard the torn tail
	// and recover everything before it.
	ServerTearAppendNth uint64
	// ServerWorkerPanicNth panics the worker executing the Nth job it
	// starts, 1-based (0 = off): care-server's in-process worker, or a
	// care-worker given the class. The worker must contain the panic,
	// requeue the job, and complete it on a later attempt.
	ServerWorkerPanicNth uint64
	// ServerAppendErrNth makes the Nth journal append attempt fail with
	// an error instead of committing, 1-based (0 = off). Unlike the
	// kill classes the process survives: this exercises the paths that
	// must stay atomic when a commit is refused (e.g. sweep submission).
	ServerAppendErrNth uint64

	// ---- network fault classes (care-worker transport chaos) ----

	// NetDropRequestEvery drops every Nth outbound worker HTTP request
	// before it is sent — the server never sees it (0 = off).
	NetDropRequestEvery uint64
	// NetDropReplyEvery delivers every Nth request but discards its
	// response — the server acted, the client saw a network error, and
	// the retry must be idempotent (0 = off).
	NetDropReplyEvery uint64
	// NetDupEvery sends every Nth request twice; the server must
	// tolerate the duplicate (idempotency keys, fencing) (0 = off).
	NetDupEvery uint64
	// NetDelayEvery delays every Nth request by NetDelayMS milliseconds
	// (default 250) before sending (0 = off).
	NetDelayEvery uint64
	// NetDelayMS is the added latency for delayed requests.
	NetDelayMS uint64
	// NetPartitionAfter cuts the worker off after its Nth request: that
	// request and everything for the next NetPartitionMS milliseconds
	// (default 2000) fail, modelling a network partition long enough
	// for the worker's lease to expire (0 = off; fires once).
	NetPartitionAfter uint64
	// NetPartitionMS is the partition window length.
	NetPartitionMS uint64
}

// Enabled reports whether any fault is configured.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.TraceCorruptAfter > 0 || c.TraceFlipEvery > 0 ||
		c.DRAMDropEvery > 0 || c.DRAMDelayEvery > 0 ||
		c.MSHRSaturateAt > 0 || c.MetaFlipAt > 0 ||
		c.KillAtCycle > 0 || c.CkptCorruptNth > 0 ||
		c.ServerEnabled() || c.NetEnabled()
}

// ServerEnabled reports whether any server-level crash class is
// configured. Simulation-level injection ignores these fields, so a
// spec carrying only server classes does not perturb job results.
func (c *Config) ServerEnabled() bool {
	if c == nil {
		return false
	}
	return c.ServerKillAppendNth > 0 || c.ServerTearAppendNth > 0 ||
		c.ServerWorkerPanicNth > 0 || c.ServerAppendErrNth > 0
}

// SimOnly returns the configuration with the server-level crash
// classes and the network transport classes cleared: what care-server
// and care-worker pass down into each job's simulation (nil when
// nothing simulation-level remains).
func (c *Config) SimOnly() *Config {
	if c == nil {
		return nil
	}
	sim := *c
	sim.ServerKillAppendNth = 0
	sim.ServerTearAppendNth = 0
	sim.ServerWorkerPanicNth = 0
	sim.ServerAppendErrNth = 0
	sim.NetDropRequestEvery = 0
	sim.NetDropReplyEvery = 0
	sim.NetDupEvery = 0
	sim.NetDelayEvery = 0
	sim.NetDelayMS = 0
	sim.NetPartitionAfter = 0
	sim.NetPartitionMS = 0
	if !sim.Enabled() {
		return nil
	}
	return &sim
}

// ParseSpec builds a Config from a compact comma-separated key=value
// spec, e.g. "dram-drop=200,seed=7" or
// "trace-flip=64,meta-flip=5000". Keys: seed, trace-corrupt,
// trace-flip, dram-drop, dram-delay, dram-delay-cycles,
// mshr-saturate, meta-flip, kill-at, ckpt-corrupt, and the
// server-level crash classes server-kill-append, journal-tear,
// worker-panic.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("faultinject: bad spec field %q (want key=value)", field)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return Config{}, fmt.Errorf("faultinject: bad value in %q: %v", field, err)
		}
		switch strings.TrimSpace(key) {
		case "seed":
			cfg.Seed = n
		case "trace-corrupt":
			cfg.TraceCorruptAfter = n
		case "trace-flip":
			cfg.TraceFlipEvery = n
		case "dram-drop":
			cfg.DRAMDropEvery = n
		case "dram-delay":
			cfg.DRAMDelayEvery = n
		case "dram-delay-cycles":
			cfg.DRAMDelayCycles = n
		case "mshr-saturate":
			cfg.MSHRSaturateAt = n
		case "meta-flip":
			cfg.MetaFlipAt = n
		case "kill-at":
			cfg.KillAtCycle = n
		case "ckpt-corrupt":
			cfg.CkptCorruptNth = n
		case "server-kill-append":
			cfg.ServerKillAppendNth = n
		case "journal-tear":
			cfg.ServerTearAppendNth = n
		case "worker-panic":
			cfg.ServerWorkerPanicNth = n
		case "append-err":
			cfg.ServerAppendErrNth = n
		case "net-drop-req":
			cfg.NetDropRequestEvery = n
		case "net-drop-reply":
			cfg.NetDropReplyEvery = n
		case "net-dup":
			cfg.NetDupEvery = n
		case "net-delay":
			cfg.NetDelayEvery = n
		case "net-delay-ms":
			cfg.NetDelayMS = n
		case "net-partition-after":
			cfg.NetPartitionAfter = n
		case "net-partition-ms":
			cfg.NetPartitionMS = n
		default:
			return Config{}, fmt.Errorf("faultinject: unknown fault %q", key)
		}
	}
	return cfg, nil
}

// Stats counts the faults actually delivered, so tests can assert
// that each configured fault fired (and diagnose ones that did not).
type Stats struct {
	RecordsFlipped       uint64
	TraceCorruptions     uint64
	ResponsesDropped     uint64
	ResponsesDelayed     uint64
	MSHREntriesClaimed   int
	MetadataFlips        uint64
	KillsFired           uint64
	CheckpointsCorrupted uint64
	WorkerPanics         uint64
	AppendErrors         uint64
	RequestsDropped      uint64
	RepliesDropped       uint64
	RequestsDuplicated   uint64
	RequestsDelayed      uint64
	PartitionDrops       uint64
}

// Injector owns the fault state for one simulation. Each System gets
// its own; it is not safe for concurrent use.
type Injector struct {
	cfg          Config
	rng          uint64
	stats        Stats
	killed       bool
	ckptsWritten uint64
	// wrapped counts WrapTrace calls; reader i derives its private RNG
	// seed from it, so rebuilding a system (which re-wraps the traces
	// in the same core order) reproduces every stream.
	wrapped uint64

	// Server crash-class state (see server.go); lazily allocated so
	// simulation-only injectors never pay for it.
	srvOnce sync.Once
	srv     *serverState

	// Network transport fault state (see net.go), same deal.
	netOnce sync.Once
	netSt   *netState
}

// New builds an injector for cfg.
func New(cfg Config) *Injector {
	if cfg.DRAMDelayEvery > 0 && cfg.DRAMDelayCycles == 0 {
		cfg.DRAMDelayCycles = 10_000
	}
	return &Injector{cfg: cfg, rng: cfg.Seed}
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats returns the live fault counters.
func (in *Injector) Stats() *Stats { return &in.stats }

// next is a seeded xorshift step (deterministic, never zero).
func (in *Injector) next() uint64 {
	v := in.rng
	if v == 0 {
		v = 0x9e3779b97f4a7c15
	}
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	in.rng = v
	return v
}

// ---- trace faults ----

// WrapTrace interposes the configured trace faults on r. Each wrapped
// reader counts its own records, so multi-core systems corrupt every
// stream at the same per-stream position. Each reader also owns a
// private RNG stream seeded from the wrap order, so flip positions are
// a pure function of (seed, reader index, records served), however
// the cores interleave their reads. The reader walks its count and RNG
// in its core's checkpoint frame, ahead of its source's walk.
func (in *Injector) WrapTrace(r trace.Reader) trace.Reader {
	if in.cfg.TraceCorruptAfter == 0 && in.cfg.TraceFlipEvery == 0 {
		return r
	}
	in.wrapped++
	return &faultReader{in: in, src: r, rng: in.cfg.Seed ^ (in.wrapped * 0x9e3779b97f4a7c15)}
}

type faultReader struct {
	in  *Injector
	src trace.Reader
	n   uint64
	rng uint64
}

// next is the reader-private xorshift step (same generator as the
// injector's, different stream).
func (f *faultReader) next() uint64 {
	v := f.rng
	if v == 0 {
		v = 0x9e3779b97f4a7c15
	}
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	f.rng = v
	return v
}

// Next implements trace.Reader.
func (f *faultReader) Next() (trace.Record, error) {
	cfg := &f.in.cfg
	if cfg.TraceCorruptAfter > 0 && f.n >= cfg.TraceCorruptAfter {
		f.in.stats.TraceCorruptions++
		return trace.Record{}, fmt.Errorf("faultinject: injected stream corruption after %d records: %w",
			f.n, trace.ErrCorrupt)
	}
	rec, err := f.src.Next()
	if err != nil {
		return trace.Record{}, err
	}
	f.n++
	if cfg.TraceFlipEvery > 0 && f.n%cfg.TraceFlipEvery == 0 {
		// Flip a bit within a 40-bit address space: garbage addresses
		// that stay physically plausible.
		rec.Addr ^= 1 << (f.next() % 40)
		f.in.stats.RecordsFlipped++
	}
	return rec, nil
}

// ---- DRAM faults ----

// WrapMemory interposes drop/delay faults between the LLC and the
// memory model. The returned level must be Ticked once per cycle so
// delayed responses mature.
func (in *Injector) WrapMemory(lower cache.Level) *Memory {
	return &Memory{in: in, lower: lower}
}

// Memory is a fault-injecting cache.Level sitting in front of DRAM.
type Memory struct {
	in    *Injector
	lower cache.Level
	reads uint64
	held  []heldResponse
	// icept holds the hijacked completion routes of delayed reads;
	// the request carries this Memory as its owner and an icept slot
	// as its tag until DRAM responds.
	icept     []iceptState
	iceptFree []uint32
}

type heldResponse struct {
	cpl mem.Completion
	at  uint64
}

type iceptState struct {
	cpl   mem.Completion
	delay uint64
}

// Access implements cache.Level: read responses are counted and the
// configured ones are dropped (the completion route is discarded) or
// delayed (the route is hijacked and deferred to Tick).
func (m *Memory) Access(req *mem.Request, cycle uint64) {
	cfg := &m.in.cfg
	if req.HasDone() && req.Kind != mem.Writeback {
		m.reads++
		switch {
		case cfg.DRAMDropEvery > 0 && m.reads%cfg.DRAMDropEvery == 0:
			m.in.stats.ResponsesDropped++
			req.TakeCompletion() // swallow the response
		case cfg.DRAMDelayEvery > 0 && m.reads%cfg.DRAMDelayEvery == 0:
			var tag uint32
			if n := len(m.iceptFree); n > 0 {
				tag = m.iceptFree[n-1]
				m.iceptFree = m.iceptFree[:n-1]
			} else {
				tag = uint32(len(m.icept))
				m.icept = append(m.icept, iceptState{})
			}
			m.icept[tag] = iceptState{cpl: req.TakeCompletion(), delay: cfg.DRAMDelayCycles}
			req.Owner = m
			req.Tag = tag
		}
	}
	m.lower.Access(req, cycle)
}

// Complete implements mem.Completer: DRAM answered a read whose
// completion route was hijacked for delaying; park the original
// route until the hold time matures.
func (m *Memory) Complete(tag uint32, cycle uint64) {
	st := m.icept[tag]
	m.icept[tag] = iceptState{}
	m.iceptFree = append(m.iceptFree, tag)
	m.in.stats.ResponsesDelayed++
	m.held = append(m.held, heldResponse{cpl: st.cpl, at: cycle + st.delay})
}

// Tick releases delayed responses whose hold time has matured.
func (m *Memory) Tick(cycle uint64) {
	if len(m.held) == 0 {
		return
	}
	rest := m.held[:0]
	for _, h := range m.held {
		if h.at <= cycle {
			h.cpl.Deliver(cycle)
		} else {
			rest = append(rest, h)
		}
	}
	for i := len(rest); i < len(m.held); i++ {
		m.held[i] = heldResponse{}
	}
	m.held = rest
}

// NextRelease returns the earliest cycle at which Tick releases a held
// response (math.MaxUint64 when none is held).
func (m *Memory) NextRelease() uint64 {
	next := uint64(math.MaxUint64)
	for _, h := range m.held {
		next = min(next, h.at)
	}
	return next
}

// Held returns the number of responses currently being delayed.
func (m *Memory) Held() int { return len(m.held) }

// ---- structural faults ----

// OnCycle fires the cycle-triggered faults (MSHR saturation, metadata
// corruption) against the LLC. The simulator calls it once per cycle.
// From MSHRSaturateAt onward every free LLC entry is re-claimed each
// cycle, so misses completing after the onset cannot reopen capacity
// — the file stays permanently full.
func (in *Injector) OnCycle(cycle uint64, llc *cache.Cache) {
	cfg := &in.cfg
	if cfg.MSHRSaturateAt > 0 && cycle >= cfg.MSHRSaturateAt {
		in.stats.MSHREntriesClaimed += llc.SaturateMSHR(cycle)
	}
	if cfg.MetaFlipAt > 0 && cycle == cfg.MetaFlipAt {
		if corrupter, ok := llc.Policy().(interface{ CorruptMetadata(set, way int) bool }); ok {
			if set, way, ok := llc.SomeValidBlock(); ok && corrupter.CorruptMetadata(set, way) {
				in.stats.MetadataFlips++
				return
			}
		}
		if set, way, ok := llc.SomeValidBlock(); ok && llc.FlipTagBit(set, way, uint(in.next()%20), cycle) {
			in.stats.MetadataFlips++
		}
	}
}

// NextFault returns the earliest cycle, from now on, at which OnCycle
// acts: now once MSHR saturation has begun (it re-claims entries every
// cycle), else the saturation onset or the metadata flip, whichever
// comes first (math.MaxUint64 when neither is pending).
func (in *Injector) NextFault(now uint64) uint64 {
	next := uint64(math.MaxUint64)
	if at := in.cfg.MSHRSaturateAt; at > 0 {
		if at <= now {
			return now
		}
		next = at
	}
	if at := in.cfg.MetaFlipAt; at > 0 && at >= now {
		next = min(next, at)
	}
	return next
}

// ---- crash faults ----

// ErrKilled is the injected mid-run crash: the simulator's guard
// surfaces it as a typed failure, as if the process had died.
var ErrKilled = errors.New("faultinject: injected mid-run kill")

// ShouldKill reports whether the configured kill fires at this cycle.
// It fires at most once per injector.
func (in *Injector) ShouldKill(cycle uint64) bool {
	if in.cfg.KillAtCycle == 0 || in.killed || cycle < in.cfg.KillAtCycle {
		return false
	}
	in.killed = true
	in.stats.KillsFired++
	return true
}

// OnCheckpointWritten counts checkpoint files as the simulator writes
// them and corrupts the configured Nth one by flipping a bit in its
// payload region. Returns whether this checkpoint was corrupted.
func (in *Injector) OnCheckpointWritten(path string) (bool, error) {
	in.ckptsWritten++
	if in.cfg.CkptCorruptNth == 0 || in.ckptsWritten != in.cfg.CkptCorruptNth {
		return false, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("faultinject: corrupting checkpoint: %v", err)
	}
	const header = 12 // magic + version; flip past it so the CRC catches it
	if len(data) <= header+1 {
		return false, nil
	}
	off := header + int(in.next()%uint64(len(data)-header))
	data[off] ^= 1 << (in.next() % 8)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return false, fmt.Errorf("faultinject: corrupting checkpoint: %v", err)
	}
	in.stats.CheckpointsCorrupted++
	return true, nil
}
