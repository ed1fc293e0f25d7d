package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
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
// traces, so a restore whose record count is too large for the trace
// ends at EOF.
func newRestoreFixture(tb testing.TB, cores int, pol policy.Policy) *restoreFixture {
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
	return runRestoreFixture(tb, cores, pol, func(core int) trace.Reader { return trace.NewSlice(records[core]) })
}

// newEndlessFixture runs the CARE fixture over endless synthetic
// generators, as every workload is: no trace end stops a replay.
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

// restore restores checkpoint bytes into a fresh system under ctx.
func (fx *restoreFixture) restore(ctx context.Context, data []byte) (*System, error) {
	s, err := fx.build()
	if err != nil {
		return nil, err
	}
	r, err := checkpoint.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	_, err = s.ReadCheckpoint(ctx, r, fx.job)
	return s, err
}

// read restores checkpoint bytes into a fresh system.
func (fx *restoreFixture) read(data []byte) error {
	_, err := fx.restore(context.Background(), data)
	return err
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

	for _, tc := range []struct {
		name string
		file []byte
		want error
	}{
		{"valid", fx.file, nil},
		{"pmc-fewer-lists", joinFrames(t, replace(t, frames, "pmc",
			payloadOf(t, splitFrames(t, newRestoreFixture(t, 1, policy.CARE).file), "pmc"))), checkpoint.ErrMismatch},
		{"negative-telemetry-count", joinFrames(t, replace(t, frames, "telemetry", withCount(-1))), checkpoint.ErrCorrupt},
		{"telemetry-count-above-start-bound", joinFrames(t, replace(t, frames, "telemetry", earlyStart)), checkpoint.ErrCorrupt},
		{"telemetry-count-beyond-bytes", joinFrames(t, replace(t, frames, "telemetry", withCount(bound))), checkpoint.ErrCorrupt},
		{"count-beyond-bytes", joinFrames(t, replace(t, frames, "telemetry", tagTooLong)), checkpoint.ErrCorrupt},
		{"trailing-bytes", joinFrames(t, replace(t, frames, "dram",
			append(append([]byte(nil), payloadOf(t, frames, "dram")...), 0))), checkpoint.ErrCorrupt},
		{"version-1", version1, checkpoint.ErrVersion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := fx.read(tc.file)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzCheckpointRestore replaces one frame's payload of a valid
// checkpoint of a run under one of the LLC policies with arbitrary
// bytes, re-framed with a valid CRC: the restore must succeed or fail
// with a typed checkpoint error, and a restored system must then run
// fuzzRunCycles cycles, all without a panic. The seed corpus holds
// every frame of the CARE run and the LLC frame of every other
// policy's run.
func FuzzCheckpointRestore(f *testing.F) {
	pols := policy.All()
	fixtures := make([]*restoreFixture, len(pols))
	frames := make([][]rawFrame, len(pols))
	for i, p := range pols {
		fixtures[i] = newRestoreFixture(f, 2, p)
		frames[i] = splitFrames(f, fixtures[i].file)
		for j, fr := range frames[i] {
			if p == policy.CARE || fr.name == "llc" {
				f.Add(uint8(i), uint8(j), fr.payload)
			}
		}
	}
	f.Fuzz(func(t *testing.T, pol, idx uint8, payload []byte) {
		p := int(pol) % len(pols)
		mut := append([]rawFrame(nil), frames[p]...)
		frame := &mut[int(idx)%len(mut)]
		frame.payload = payload
		s, err := fixtures[p].restore(context.Background(), joinFrames(t, mut))
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) && !errors.Is(err, checkpoint.ErrMismatch) &&
				!errors.Is(err, checkpoint.ErrNotCheckpointable) {
				t.Fatalf("%s, frame %q: untyped restore error: %v", pols[p], frame.name, err)
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

// withRecords returns a core frame payload whose stored trace record
// count, the frame's last uvarint, is n.
func withRecords(payload []byte, n uint64) []byte {
	i := len(payload) - 1
	for i > 0 && payload[i-1]&0x80 != 0 {
		i--
	}
	return binary.AppendUvarint(append([]byte(nil), payload[:i]...), n)
}

// TestRestoreBoundsTraceReplay: over endless traces, a checkpoint whose
// record count or cycle no run of the job can reach, or whose schedule
// is not the job's, is refused with a typed error before any trace is
// repositioned, so the restore returns at once instead of replaying
// forged records for hours.
func TestRestoreBoundsTraceReplay(t *testing.T) {
	fx := newEndlessFixture(t, 2)
	frames := splitFrames(t, fx.file)
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
	core0 := payloadOf(t, frames, "core-0")
	// Dispatch pulls at most one record per issue slot and cycle.
	perCycle := uint64(cpu.DefaultParams().IssueWidth)
	for _, tc := range []struct {
		name string
		file []byte
		want error
	}{
		{"valid", fx.file, nil},
		{"records-forged", joinFrames(t, replace(t, frames, "core-0", withRecords(core0, 1<<62))), checkpoint.ErrCorrupt},
		{"records-one-past-bound", joinFrames(t, replace(t, frames, "core-0",
			withRecords(core0, perCycle*meta.Cycle+1))), checkpoint.ErrCorrupt},
		{"cycle-beyond-job", joinFrames(t, replace(t, frames, "meta",
			metaWith(func(m *RunMeta) { m.Cycle = 1 << 50 }))), checkpoint.ErrCorrupt},
		{"other-schedule", joinFrames(t, replace(t, frames, "meta",
			metaWith(func(m *RunMeta) { m.Measure *= 2 }))), checkpoint.ErrMismatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- fx.read(tc.file) }()
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Fatalf("got %v, want %v", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("restore still replaying after 10s")
			}
		})
	}
}

// TestRestoreReplayCancellable: a checkpoint forged to the last cycle
// the job allows, with core 0's record count at its bound, passes
// every check and would replay for seconds; the restore stops the
// replay once its context is done and returns the context's error.
func TestRestoreReplayCancellable(t *testing.T) {
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
	records := uint64(cpu.DefaultParams().IssueWidth) * meta.Cycle
	forged := replace(t, replace(t, frames, "meta", forgedMeta), "core-0",
		withRecords(payloadOf(t, frames, "core-0"), records))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = fx.restore(ctx, joinFrames(t, forged))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("restore of %d forged records returned %v, want %v", records, err, context.DeadlineExceeded)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("restore returned %v after its 50ms deadline", took)
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
	if _, err := s.ReadCheckpoint(context.Background(), r, fx.job); err != nil {
		t.Fatal(err)
	}
	s.step()
	s.llc.SyncTrackers()
	if got := s.pml.AOCPA(0); got > 1 {
		t.Fatalf("core 0 AOCPA %v one cycle after the restore at cycle %d, want at most 1", got, meta.Cycle)
	}
}
