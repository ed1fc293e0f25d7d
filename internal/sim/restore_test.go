package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"care/internal/checkpoint"
	"care/internal/core/pmc"
	"care/internal/cpu"
	"care/internal/mem"
	"care/internal/policy"
	"care/internal/synth"
	"care/internal/telemetry"
	"care/internal/trace"
)

// restoreFixture is a small system with telemetry, the job it ran,
// and a valid checkpoint of that run.
type restoreFixture struct {
	cores  int
	policy policy.Policy
	// trace returns a fresh, unread copy of core's trace.
	trace func(core int) trace.Reader
	job   Job
	file  []byte
}

// newRestoreFixture runs the fixture with LLC policy pol over finite
// slice traces.
func newRestoreFixture(tb testing.TB, cores int, pol policy.Policy) *restoreFixture {
	tb.Helper()
	records := fixtureRecords(tb, cores)
	return runRestoreFixture(tb, cores, pol, func(core int) trace.Reader { return trace.NewSlice(records[core]) })
}

// fixtureRecords records 6000 records of 429.mcf per core.
func fixtureRecords(tb testing.TB, cores int) [][]trace.Record {
	tb.Helper()
	p, err := synth.Lookup("429.mcf")
	if err != nil {
		tb.Fatal(err)
	}
	records := make([][]trace.Record, cores)
	for i := range records {
		sl, err := trace.Collect(synth.NewScaledGenerator(p, uint64(i+1), 64), 6000)
		if err != nil {
			tb.Fatal(err)
		}
		records[i] = sl.Records
	}
	return records
}

// newEndlessFixture runs the CARE fixture over endless synthetic
// generators, as every SPEC-like workload is.
func newEndlessFixture(tb testing.TB, cores int) *restoreFixture {
	tb.Helper()
	p, err := synth.Lookup("429.mcf")
	if err != nil {
		tb.Fatal(err)
	}
	return runRestoreFixture(tb, cores, policy.CARE, func(core int) trace.Reader {
		return synth.NewScaledGenerator(p, uint64(core+1), 64)
	})
}

// newCopiesFixture runs the CARE fixture over trace.Copies of core 0's
// records, as every GAP workload is.
func newCopiesFixture(tb testing.TB, cores int) *restoreFixture {
	tb.Helper()
	records := fixtureRecords(tb, 1)[0]
	return runRestoreFixture(tb, cores, policy.CARE, func(core int) trace.Reader {
		return trace.Copies(records, cores)[core]
	})
}

// runRestoreFixture runs the fixture's job and keeps its checkpoint.
func runRestoreFixture(tb testing.TB, cores int, pol policy.Policy, tr func(int) trace.Reader) *restoreFixture {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "run.ckpt")
	fx := &restoreFixture{cores: cores, policy: pol, trace: tr}
	fx.job = Job{
		Build:      fx.build,
		Warmup:     2000,
		Measure:    6000,
		Checkpoint: CheckpointOptions{Path: path, Every: 2000},
	}
	if _, _, err := Execute(context.Background(), fx.job); err != nil {
		tb.Fatal(err)
	}
	var err error
	if fx.file, err = os.ReadFile(path); err != nil {
		tb.Fatal(err)
	}
	return fx
}

// build constructs a fresh system over unread copies of the traces.
func (fx *restoreFixture) build() (*System, error) {
	cfg := ScaledConfig(fx.cores, 64)
	cfg.LLCPolicy = fx.policy
	cfg.Telemetry = telemetry.NewCollector(telemetry.Options{
		Interval: 1000, Tag: "restore",
	})
	traces := make([]trace.Reader, fx.cores)
	for i := range traces {
		traces[i] = fx.trace(i)
	}
	return New(cfg, traces)
}

// restore restores checkpoint bytes into a fresh system.
func (fx *restoreFixture) restore(data []byte) (*System, error) {
	s, err := fx.build()
	if err != nil {
		return nil, err
	}
	r, err := checkpoint.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	_, err = s.ReadCheckpoint(r, fx.job)
	return s, err
}

// read restores checkpoint bytes into a fresh system.
func (fx *restoreFixture) read(data []byte) error {
	_, err := fx.restore(data)
	return err
}

// splitCore splits core's frame payload into the core's own fields and
// its trace source's walk.
func (fx *restoreFixture) splitCore(tb testing.TB, frames []rawFrame, core int) (head, walk []byte) {
	tb.Helper()
	payload := payloadOf(tb, frames, fmt.Sprintf("core-%d", core))
	src := fx.trace(core)
	if err := checkpoint.Decode(payload, cpu.New(core, cpu.DefaultParams(), src, nil).Checkpoint); err != nil {
		tb.Fatal(err)
	}
	walk, err := checkpoint.Encode(func(s *checkpoint.State) { trace.Walk(s, src) })
	if err != nil || !bytes.HasSuffix(payload, walk) {
		tb.Fatalf("core %d frame does not end with its trace walk (%v)", core, err)
	}
	return payload[:len(payload)-len(walk)], walk
}

// forgeCore returns frames with core's trace walk decoded into v,
// edited, and encoded back after the core's own fields.
func (fx *restoreFixture) forgeCore(tb testing.TB, frames []rawFrame, core int, v checkpoint.Component, edit func()) []rawFrame {
	tb.Helper()
	head, walk := fx.splitCore(tb, frames, core)
	if err := checkpoint.Decode(walk, v.Checkpoint); err != nil {
		tb.Fatal(err)
	}
	edit()
	forged, err := checkpoint.Encode(v.Checkpoint)
	if err != nil {
		tb.Fatal(err)
	}
	return replace(tb, frames, fmt.Sprintf("core-%d", core), append(append([]byte(nil), head...), forged...))
}

// sliceWalk mirrors the layout of a trace.Slice's walk.
type sliceWalk struct{ n, pos uint64 }

func (w *sliceWalk) Checkpoint(s *checkpoint.State) {
	checkpoint.Uint(s, &w.n)
	checkpoint.Uint(s, &w.pos)
}

// genWalk mirrors the layout of a synth.Generator's walk.
type genWalk struct {
	id                     string // profile name and seed
	rng, phaseRNG, emitted uint64
	boostA, boostB         int
	engines                []engineWalk
}

type engineWalk struct {
	rng     uint64
	cursors []uint64
}

func (w *genWalk) Checkpoint(s *checkpoint.State) {
	s.String(&w.id)
	for _, v := range []*uint64{&w.rng, &w.phaseRNG, &w.emitted} {
		checkpoint.Uint(s, v)
	}
	checkpoint.Int(s, &w.boostA)
	checkpoint.Int(s, &w.boostB)
	checkpoint.Slice(s, &w.engines, func(s *checkpoint.State, es []engineWalk) {
		for i := range es {
			checkpoint.Uint(s, &es[i].rng)
			checkpoint.Slice(s, &es[i].cursors, checkpoint.Uints)
		}
	})
}

// rawFrame is one frame of a checkpoint container.
type rawFrame struct {
	name    string
	payload []byte
}

// splitFrames parses a verified checkpoint container into its frames.
func splitFrames(tb testing.TB, data []byte) []rawFrame {
	tb.Helper()
	if _, err := checkpoint.Verify(bytes.NewReader(data)); err != nil {
		tb.Fatal(err)
	}
	var out []rawFrame
	rest := data[len(checkpoint.Magic)+4:]
	for {
		n := int(binary.LittleEndian.Uint16(rest))
		if n == 0xFFFF {
			return out
		}
		name := string(rest[2 : 2+n])
		size := int(binary.LittleEndian.Uint32(rest[2+n:]))
		rest = rest[2+n+8:]
		out = append(out, rawFrame{name, rest[:size:size]})
		rest = rest[size:]
	}
}

// joinFrames frames payloads into a checkpoint container with valid
// CRCs, so only the payloads decide what a restore sees.
func joinFrames(tb testing.TB, frames []rawFrame) []byte {
	var buf bytes.Buffer
	w, err := checkpoint.NewWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range frames {
		buf.Write(binary.LittleEndian.AppendUint16(nil, uint16(len(f.name))))
		buf.WriteString(f.name)
		buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(f.payload))))
		buf.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(f.payload)))
		buf.Write(f.payload)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// replace returns a copy of frames with the named frame's payload
// replaced.
func replace(tb testing.TB, frames []rawFrame, name string, payload []byte) []rawFrame {
	tb.Helper()
	out := append([]rawFrame(nil), frames...)
	for i := range out {
		if out[i].name == name {
			out[i].payload = payload
			return out
		}
	}
	tb.Fatalf("no frame %q", name)
	return nil
}

func payloadOf(tb testing.TB, frames []rawFrame, name string) []byte {
	tb.Helper()
	for _, f := range frames {
		if f.name == name {
			return f.payload
		}
	}
	tb.Fatalf("no frame %q", name)
	return nil
}

// TestRestoreRejectsMalformedFrames: a checkpoint that passes
// checkpoint.Verify but carries malformed state is refused with a
// typed error, never restored and never a panic.
func TestRestoreRejectsMalformedFrames(t *testing.T) {
	fx := newRestoreFixture(t, 2, policy.CARE)
	frames := splitFrames(t, fx.file)
	tele := payloadOf(t, frames, "telemetry")
	// The telemetry frame opens with the current interval's start
	// cycle and the completed-interval count; at most start/interval+1
	// intervals can have completed by then.
	start, n1 := binary.Uvarint(tele)
	count, n2 := binary.Varint(tele[n1:])
	bound := int64(start/1000 + 1)
	if n1 <= 0 || n2 <= 0 || count == 0 || count > bound {
		t.Fatalf("telemetry frame opens with start %d, count %d", start, count)
	}
	head := func(start uint64, n int64) []byte { return binary.AppendVarint(binary.AppendUvarint(nil, start), n) }
	withCount := func(n int64) []byte { return append(head(start, n), tele[n1+n2:]...) }
	// The intervals decode as stored, but no more than one (a final
	// partial one) can have completed by cycle interval-1.
	earlyStart := append(head(999, count), tele[n1+n2:]...)
	// The first interval opens with its one-byte tag length.
	tagTooLong := append(binary.AppendUvarint(head(start, count), 1<<40), tele[n1+n2+1:]...)
	version1 := append([]byte(nil), fx.file...)
	binary.LittleEndian.PutUint32(version1[len(checkpoint.Magic):], 1)
	var meta RunMeta
	if err := checkpoint.Decode(payloadOf(t, frames, "meta"), meta.Checkpoint); err != nil {
		t.Fatal(err)
	}
	metaWith := func(edit func(*RunMeta)) []byte {
		m := meta
		edit(&m)
		b, err := checkpoint.Encode(m.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var sw sliceWalk
	sliceWith := func(edit func()) []byte { return joinFrames(t, fx.forgeCore(t, frames, 1, &sw, edit)) }
	gen := newEndlessFixture(t, 2)
	genFrames := splitFrames(t, gen.file)
	var gw genWalk
	genWith := func(edit func()) []byte { return joinFrames(t, gen.forgeCore(t, genFrames, 0, &gw, edit)) }

	for _, tc := range []struct {
		name string
		file []byte
		want error
		on   *restoreFixture // nil: fx
	}{
		{"valid", fx.file, nil, nil},
		{"pmc-fewer-lists", joinFrames(t, replace(t, frames, "pmc",
			payloadOf(t, splitFrames(t, newRestoreFixture(t, 1, policy.CARE).file), "pmc"))), checkpoint.ErrMismatch, nil},
		{"negative-telemetry-count", joinFrames(t, replace(t, frames, "telemetry", withCount(-1))), checkpoint.ErrCorrupt, nil},
		{"telemetry-count-above-start-bound", joinFrames(t, replace(t, frames, "telemetry", earlyStart)), checkpoint.ErrCorrupt, nil},
		{"telemetry-count-beyond-bytes", joinFrames(t, replace(t, frames, "telemetry", withCount(bound))), checkpoint.ErrCorrupt, nil},
		{"count-beyond-bytes", joinFrames(t, replace(t, frames, "telemetry", tagTooLong)), checkpoint.ErrCorrupt, nil},
		{"trailing-bytes", joinFrames(t, replace(t, frames, "dram",
			append(append([]byte(nil), payloadOf(t, frames, "dram")...), 0))), checkpoint.ErrCorrupt, nil},
		{"version-1", version1, checkpoint.ErrVersion, nil},
		{"cycle-beyond-job", joinFrames(t, replace(t, frames, "meta",
			metaWith(func(m *RunMeta) { m.Cycle = 1 << 50 }))), checkpoint.ErrCorrupt, nil},
		{"other-schedule", joinFrames(t, replace(t, frames, "meta",
			metaWith(func(m *RunMeta) { m.Measure *= 2 }))), checkpoint.ErrMismatch, nil},
		{"slice-position-beyond-length", sliceWith(func() { sw.pos = sw.n + 1 }), checkpoint.ErrCorrupt, nil},
		{"slice-other-length", sliceWith(func() { sw.n++ }), checkpoint.ErrMismatch, nil},
		{"generator-valid", gen.file, nil, gen},
		{"generator-other-seed", genWith(func() { gw.id = strings.Replace(gw.id, "seed 1", "seed 2", 1) }), checkpoint.ErrMismatch, gen},
		{"generator-boost-out-of-range", genWith(func() { gw.boostB = len(gw.engines) }), checkpoint.ErrCorrupt, gen},
		{"generator-cursor-beyond-region", genWith(func() { gw.engines[0].cursors[0] = 1 << 62 }), checkpoint.ErrCorrupt, gen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			on := tc.on
			if on == nil {
				on = fx
			}
			err := on.read(tc.file)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzCheckpointRestore replaces one frame's payload of a valid
// checkpoint of a run under one of the LLC policies, or over one of
// the other trace sources, with arbitrary bytes, re-framed with a
// valid CRC: the restore must succeed or fail with a typed checkpoint
// error, and a restored system must then run fuzzRunCycles cycles, all
// without a panic. The seed corpus holds every frame of the CARE run,
// the LLC frame of every other policy's run, and the core frames of
// the CARE runs over synthetic generators and over trace.Copies.
func FuzzCheckpointRestore(f *testing.F) {
	pols := policy.All()
	var (
		names    []string
		fixtures []*restoreFixture
		frames   [][]rawFrame
	)
	add := func(name string, fx *restoreFixture, seed func(rawFrame) bool) {
		i := len(fixtures)
		names, fixtures = append(names, name), append(fixtures, fx)
		frames = append(frames, splitFrames(f, fx.file))
		for j, fr := range frames[i] {
			if seed(fr) {
				f.Add(uint8(i), uint8(j), fr.payload)
			}
		}
	}
	for _, p := range pols {
		add(string(p), newRestoreFixture(f, 2, p), func(fr rawFrame) bool { return p == policy.CARE || fr.name == "llc" })
	}
	isCore := func(fr rawFrame) bool { return strings.HasPrefix(fr.name, "core-") }
	add("generators", newEndlessFixture(f, 2), isCore)
	add("copies", newCopiesFixture(f, 2), isCore)
	f.Fuzz(func(t *testing.T, fixture, idx uint8, payload []byte) {
		p := int(fixture) % len(fixtures)
		mut := append([]rawFrame(nil), frames[p]...)
		frame := &mut[int(idx)%len(mut)]
		frame.payload = payload
		s, err := fixtures[p].restore(joinFrames(t, mut))
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) && !errors.Is(err, checkpoint.ErrMismatch) &&
				!errors.Is(err, checkpoint.ErrNotCheckpointable) {
				t.Fatalf("%s, frame %q: untyped restore error: %v", names[p], frame.name, err)
			}
			return
		}
		for end := s.cycle + fuzzRunCycles; s.cycle < end; {
			s.advance(end)
		}
	})
}

// fuzzRunCycles is how long FuzzCheckpointRestore runs a restored
// system: long enough for every core and cache to act on its restored
// state.
const fuzzRunCycles = 4000

// TestRestoreDoesNoReplay: a checkpoint forged to the last cycle the
// job allows, with core 0's generator at 2^62 emitted records, restores
// at once: every trace source reads its state from the file, so the
// restore does no work beyond decoding it.
func TestRestoreDoesNoReplay(t *testing.T) {
	fx := newEndlessFixture(t, 2)
	frames := splitFrames(t, fx.file)
	var meta RunMeta
	if err := checkpoint.Decode(payloadOf(t, frames, "meta"), meta.Checkpoint); err != nil {
		t.Fatal(err)
	}
	meta.Cycle = scheduleCycles(fx.job, fx.cores)
	forgedMeta, err := checkpoint.Encode(meta.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	var gw genWalk
	forged := joinFrames(t, fx.forgeCore(t, replace(t, frames, "meta", forgedMeta), 0, &gw, func() { gw.emitted = 1 << 62 }))
	s, err := fx.build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := checkpoint.NewReader(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.ReadCheckpoint(r, fx.job); err != nil {
		t.Fatalf("restore at cycle %d: %v", meta.Cycle, err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("restore at cycle %d took %v, want at most 100ms", meta.Cycle, took)
	}
}

// TestRestoreRestartsPMLClock: a restore restarts the PML's per-core
// clocks at the checkpoint's cycle. Two base phases of core 0 still
// open at the checkpoint overlap for one cycle in the first step after
// it; had the clocks stayed at zero, the next catch-up would count
// them open since cycle 0.
func TestRestoreRestartsPMLClock(t *testing.T) {
	fx := newRestoreFixture(t, 2, policy.CARE)
	frames := splitFrames(t, fx.file)
	var meta RunMeta
	if err := checkpoint.Decode(payloadOf(t, frames, "meta"), meta.Checkpoint); err != nil {
		t.Fatal(err)
	}
	s, err := fx.build()
	if err != nil {
		t.Fatal(err)
	}
	open := pmc.New(s.cfg.LLC.Latency, fx.cores)
	open.OnAccessStart(0, mem.Load, meta.Cycle)
	open.OnAccessStart(0, mem.Load, meta.Cycle)
	payload, err := checkpoint.Encode(open.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	r, err := checkpoint.NewReader(bytes.NewReader(joinFrames(t, replace(t, frames, "pmc", payload))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadCheckpoint(r, fx.job); err != nil {
		t.Fatal(err)
	}
	s.step()
	s.llc.SyncTrackers()
	if got := s.pml.AOCPA(0); got > 1 {
		t.Fatalf("core 0 AOCPA %v one cycle after the restore at cycle %d, want at most 1", got, meta.Cycle)
	}
}
