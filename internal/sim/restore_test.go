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

	"care/internal/checkpoint"
	"care/internal/policy"
	"care/internal/synth"
	"care/internal/telemetry"
	"care/internal/trace"
)

// restoreFixture is a small CARE system with telemetry over finite
// traces, and a valid checkpoint of it. Finite traces make a restore
// whose record count is too large end at EOF instead of replaying
// forever.
type restoreFixture struct {
	records [][]trace.Record
	file    []byte
}

func newRestoreFixture(tb testing.TB, cores int) *restoreFixture {
	tb.Helper()
	p, err := synth.Lookup("429.mcf")
	if err != nil {
		tb.Fatal(err)
	}
	fx := &restoreFixture{records: make([][]trace.Record, cores)}
	for i := range fx.records {
		sl, err := trace.Collect(synth.NewScaledGenerator(p, uint64(i+1), 64), 6000)
		if err != nil {
			tb.Fatal(err)
		}
		fx.records[i] = sl.Records
	}
	path := filepath.Join(tb.TempDir(), "run.ckpt")
	if _, _, err := Execute(context.Background(), Job{
		Build:      fx.build,
		Warmup:     2000,
		Measure:    6000,
		Checkpoint: CheckpointOptions{Path: path, Every: 2000},
	}); err != nil {
		tb.Fatal(err)
	}
	if fx.file, err = os.ReadFile(path); err != nil {
		tb.Fatal(err)
	}
	return fx
}

// build constructs a fresh system over unread copies of the traces.
func (fx *restoreFixture) build() (*System, error) {
	cfg := ScaledConfig(len(fx.records), 64)
	cfg.LLCPolicy = policy.CARE
	cfg.Telemetry = telemetry.NewCollector(telemetry.Options{
		Interval: 1000, Tag: "restore", Sink: telemetry.NewMemory(),
	})
	traces := make([]trace.Reader, len(fx.records))
	for i, recs := range fx.records {
		traces[i] = trace.NewSlice(recs)
	}
	return New(cfg, traces)
}

// read restores checkpoint bytes into a fresh system.
func (fx *restoreFixture) read(data []byte) error {
	s, err := fx.build()
	if err != nil {
		return err
	}
	r, err := checkpoint.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	_, err = s.ReadCheckpoint(r)
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
	fx := newRestoreFixture(t, 2)
	frames := splitFrames(t, fx.file)
	tele := payloadOf(t, frames, "telemetry")
	// The telemetry frame opens with the completed-interval count and
	// the number of retained intervals.
	count, n1 := binary.Varint(tele)
	retained, n2 := binary.Uvarint(tele[n1:])
	if n1 <= 0 || n2 <= 0 || retained == 0 || count < int64(retained) {
		t.Fatalf("telemetry frame opens with count %d, retained %d", count, retained)
	}
	version1 := append([]byte(nil), fx.file...)
	binary.LittleEndian.PutUint32(version1[len(checkpoint.Magic):], 1)

	for _, tc := range []struct {
		name string
		file []byte
		want error
	}{
		{"valid", fx.file, nil},
		{"pmc-fewer-lists", joinFrames(t, replace(t, frames, "pmc",
			payloadOf(t, splitFrames(t, newRestoreFixture(t, 1).file), "pmc"))), checkpoint.ErrMismatch},
		{"negative-telemetry-count", joinFrames(t, replace(t, frames, "telemetry",
			append(binary.AppendVarint(nil, -1), tele[n1:]...))), checkpoint.ErrCorrupt},
		{"count-beyond-bytes", joinFrames(t, replace(t, frames, "telemetry",
			append(binary.AppendUvarint(binary.AppendVarint(nil, count), 1<<40), tele[n1+n2:]...))), checkpoint.ErrCorrupt},
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
// checkpoint with arbitrary bytes, re-framed with a valid CRC: the
// restore must succeed or fail with a typed checkpoint error, and
// never panic.
func FuzzCheckpointRestore(f *testing.F) {
	fx := newRestoreFixture(f, 2)
	frames := splitFrames(f, fx.file)
	for i, fr := range frames {
		f.Add(uint8(i), fr.payload)
	}
	f.Fuzz(func(t *testing.T, idx uint8, payload []byte) {
		mut := append([]rawFrame(nil), frames...)
		mut[int(idx)%len(mut)].payload = payload
		err := fx.read(joinFrames(t, mut))
		if err != nil && !errors.Is(err, checkpoint.ErrCorrupt) && !errors.Is(err, checkpoint.ErrMismatch) &&
			!errors.Is(err, checkpoint.ErrNotCheckpointable) {
			t.Fatalf("frame %q: untyped restore error: %v", mut[int(idx)%len(mut)].name, err)
		}
	})
}
