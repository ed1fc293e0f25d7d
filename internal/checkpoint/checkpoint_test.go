package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
)

type testState struct {
	N uint64
	S []byte
}

func (ts *testState) Checkpoint(s *State) { Plain(s, ts) }

// writeFile builds a two-frame checkpoint file and returns its path.
func writeFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.ckpt")
	err := Save(path, func(w *Writer) error {
		if err := w.Frame("alpha", (&testState{N: 42, S: []byte("hello")}).Checkpoint); err != nil {
			return err
		}
		return w.Frame("beta", (&testState{N: 7}).Checkpoint)
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	path := writeFile(t)
	err := Load(path, func(r *Reader) error {
		var st testState
		if err := r.Frame("alpha", st.Checkpoint); err != nil {
			return err
		}
		if st.N != 42 || string(st.S) != "hello" {
			t.Fatalf("frame alpha decoded as %+v", st)
		}
		if err := r.Frame("beta", st.Checkpoint); err != nil {
			return err
		}
		return r.End()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissingFile(t *testing.T) {
	err := Load(filepath.Join(t.TempDir(), "nope.ckpt"), func(r *Reader) error { return nil })
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: got %v, want fs.ErrNotExist", err)
	}
}

func TestBitFlipRejected(t *testing.T) {
	path := writeFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every byte position past the header in turn; the
	// reader must reject each damaged file with ErrCorrupt (a flipped
	// frame-name or length byte is also structural corruption).
	for _, pos := range []int{13, len(raw) / 2, len(raw) - 3} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		err := Load(path, func(r *Reader) error {
			var st testState
			if err := r.Frame("alpha", st.Checkpoint); err != nil {
				return err
			}
			if err := r.Frame("beta", st.Checkpoint); err != nil {
				return err
			}
			return r.End()
		})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: got %v, want ErrCorrupt", pos, err)
		}
	}
}

func TestTruncationRejected(t *testing.T) {
	path := writeFile(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{len(raw) - 1, len(raw) - 4, len(Magic) + 5, 4} {
		if err := os.WriteFile(path, raw[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		err := Load(path, func(r *Reader) error {
			var st testState
			if err := r.Frame("alpha", st.Checkpoint); err != nil {
				return err
			}
			if err := r.Frame("beta", st.Checkpoint); err != nil {
				return err
			}
			return r.End()
		})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: got %v, want ErrCorrupt", keep, err)
		}
	}
}

func TestFutureVersionRejected(t *testing.T) {
	// Version-1 is a file from the build before the last format
	// change (its telemetry frame listed the delta baseline field by
	// field); cross-version restore is refused both ways. Version 4 core frames
	// held a record count that a restore replayed, and version 3
	// telemetry frames only the series since warmup ended.
	for _, ver := range []uint32{Version + 1, Version - 1, 4, 3} {
		path := writeFile(t)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[len(Magic):], ver)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		err = Load(path, func(r *Reader) error { return nil })
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", ver, err)
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := writeFile(t)
	raw, _ := os.ReadFile(path)
	raw[0] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err := Load(path, func(r *Reader) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

func TestFrameOrderEnforced(t *testing.T) {
	path := writeFile(t)
	err := Load(path, func(r *Reader) error {
		return r.Frame("beta", new(testState).Checkpoint) // file has "alpha" first
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-order frame: got %v, want ErrCorrupt", err)
	}
}

func TestSaveIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "atomic.ckpt")
	if err := Save(path, func(w *Writer) error {
		return w.Frame("alpha", (&testState{N: 1}).Checkpoint)
	}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the previous file byte-identical and
	// no temp files behind.
	boom := errors.New("boom")
	if err := Save(path, func(w *Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Save swallowed the writer error: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed Save modified the existing checkpoint")
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestSaveErrClassifiesENOSPC(t *testing.T) {
	// A full device anywhere in the write path must surface as the
	// typed ErrNoSpace, not a generic wrap, so supervisors can tell an
	// environmental failure from corrupt state.
	wrapped := &fs.PathError{Op: "write", Path: "x", Err: syscall.ENOSPC}
	err := saveErr("/tmp/x.ckpt", wrapped)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("ENOSPC not classified: %v", err)
	}
	if errors.Is(saveErr("/tmp/x.ckpt", errors.New("boom")), ErrNoSpace) {
		t.Fatal("unrelated failure classified as ErrNoSpace")
	}
}

func TestSaveENOSPCFromFrameCallback(t *testing.T) {
	// An ENOSPC raised inside the frame callback (e.g. the buffered
	// writer flushing mid-frame) is classified too; other callback
	// errors pass through untouched for errors.Is matching.
	path := filepath.Join(t.TempDir(), "full.ckpt")
	full := &fs.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
	if err := Save(path, func(w *Writer) error { return full }); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("callback ENOSPC not classified: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("failed Save left a checkpoint behind")
	}
}

func TestSaveSyncsDirectory(t *testing.T) {
	// The durable-rename path (fsync of the containing directory) must
	// not break ordinary saves or the round trip.
	path := filepath.Join(t.TempDir(), "sub", "run.ckpt")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	want := testState{N: 42, S: []byte("dir-sync")}
	if err := Save(path, func(w *Writer) error { return w.Frame("state", want.Checkpoint) }); err != nil {
		t.Fatal(err)
	}
	var got testState
	err := Load(path, func(r *Reader) error {
		if err := r.Frame("state", got.Checkpoint); err != nil {
			return err
		}
		return r.End()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || !bytes.Equal(got.S, want.S) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, want)
	}
}

// TestConcurrentWritersShareFramePool: writers on several goroutines
// draw frame buffers from the one pool, and each still writes the
// bytes it writes alone.
func TestConcurrentWritersShareFramePool(t *testing.T) {
	write := func(w *Writer, g int) error {
		for i := range 4 {
			st := testState{N: uint64(g*10 + i), S: bytes.Repeat([]byte{byte(g)}, 100*(g+1)*(i+1))}
			if err := w.Frame(fmt.Sprintf("frame-%d", i), st.Checkpoint); err != nil {
				return err
			}
		}
		return w.Close()
	}
	file := func(g int) ([]byte, error) {
		var b bytes.Buffer
		w, err := NewWriter(&b)
		if err != nil {
			return nil, err
		}
		err = write(w, g)
		return b.Bytes(), err
	}
	want := make([][]byte, 6)
	for g := range want {
		var err error
		if want[g], err = file(g); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				got, err := file(g)
				if err != nil || !bytes.Equal(got, want[g]) {
					t.Errorf("writer %d: %d bytes (error %v), want its %d lone bytes", g, len(got), err, len(want[g]))
					return
				}
			}
		}()
	}
	wg.Wait()
}
