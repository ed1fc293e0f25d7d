// Package checkpoint defines the on-disk container format for
// simulator checkpoints and the walk stateful components use to save
// and restore their state in it.
//
// A checkpoint file is a fixed header followed by a sequence of named,
// individually CRC32-checksummed frames and a terminating end marker:
//
//	header:  magic "CARECKP1" (8 bytes) · format version (uint32 LE)
//	frame:   name length (uint16 LE) · name bytes
//	         payload length (uint32 LE) · CRC32-IEEE of payload (uint32 LE)
//	         payload (one component's state walk)
//	trailer: end marker (uint16 LE 0xFFFF)
//
// A payload is what a Component's Checkpoint method writes through a
// State: its fields in a fixed order, integers as uvarints (zigzag for
// signed types), floats as their eight IEEE-754 bytes, bools as one
// byte, lengths before elements and map entries in ascending key
// order. There are no type descriptors and no iteration-order
// freedom, so the bytes are a pure function of the state.
//
// Every failure mode maps to a typed sentinel: a flipped bit fails the
// frame CRC (ErrCorrupt), a truncated file runs out of bytes before
// the end marker (ErrCorrupt), a future format version is refused
// (ErrVersion), a payload that is malformed, holds a count larger than
// its remaining bytes or has bytes left over is ErrCorrupt, and state
// that does not fit the restoring system's configuration is refused
// by the component (ErrMismatch). A corrupt checkpoint is therefore
// always *rejected*, never silently restored.
//
// Files are written atomically: the writer streams into a temporary
// file in the destination directory, fsyncs, and renames into place,
// so a crash mid-write leaves the previous checkpoint intact.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// Magic identifies a checkpoint file; it never changes across
// versions so old tools can at least name what they are refusing.
const Magic = "CARECKP1"

// Version is the current checkpoint format version. Readers accept
// exactly this version: state layout is tied to the simulator build,
// so cross-version restore is refused rather than guessed at (see
// DESIGN.md §8 for the compatibility rules).
const Version uint32 = 6

// Sentinel errors; match with errors.Is. They are wrapped with
// context (path, frame, detail) by the reader and writer.
var (
	// ErrCorrupt means the file failed structural validation: bad
	// magic, a frame CRC mismatch, a truncated frame, or an
	// undecodable payload.
	ErrCorrupt = errors.New("checkpoint: corrupt checkpoint")
	// ErrVersion means the file's format version is not supported by
	// this build.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrMismatch means a structurally valid checkpoint does not match
	// the restoring simulation's configuration (different core count,
	// geometry, policy, or workload identity).
	ErrMismatch = errors.New("checkpoint: configuration mismatch")
	// ErrNotCheckpointable means a live component cannot participate
	// in checkpointing (e.g. a non-rewindable trace source).
	ErrNotCheckpointable = errors.New("checkpoint: component not checkpointable")
	// ErrNoSpace means a checkpoint write failed because the device is
	// full (ENOSPC). Supervisors treat it as an environmental failure —
	// worth surfacing loudly and retrying after cleanup — rather than a
	// corrupt-state failure.
	ErrNoSpace = errors.New("checkpoint: no space left on device")
)

// endMarker terminates the frame sequence; no frame name can be this
// long (names are component identifiers).
const endMarker = 0xFFFF

// maxFrameName bounds name length below the end marker.
const maxFrameName = 1024

// maxFramePayload bounds a single frame so a corrupt length field
// cannot trigger a multi-gigabyte allocation (1 GiB).
const maxFramePayload = 1 << 30

// Writer streams frames into a checkpoint file.
type Writer struct {
	w   io.Writer
	hdr [8]byte // frame header scratch, so writing one allocates nothing
}

// NewWriter writes the header and returns a frame writer.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := io.WriteString(w, Magic); err != nil {
		return nil, err
	}
	if err := binary.Write(w, binary.LittleEndian, Version); err != nil {
		return nil, err
	}
	return &Writer{w: w}, nil
}

// framePool holds the States Frame encodes into, so a save fills one
// payload buffer, grown once to its largest frame, for all its frames
// and for later saves, instead of regrowing every frame from nothing.
// The pool is shared by concurrent saves, and the garbage collector
// empties it, so an idle buffer does not outlive the saves that grew
// it.
var framePool = sync.Pool{New: func() any { return new(State) }}

// Frame writes one named frame holding the state walk saves.
func (w *Writer) Frame(name string, walk func(*State)) error {
	if len(name) >= maxFrameName {
		return fmt.Errorf("checkpoint: frame name %q too long", name)
	}
	s := framePool.Get().(*State)
	defer framePool.Put(s)
	*s = State{buf: s.buf[:0]}
	walk(s)
	payload, err := s.buf, s.err
	if err != nil {
		return fmt.Errorf("checkpoint: encode frame %q: %w", name, err)
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("checkpoint: frame %q payload too large (%d bytes)", name, len(payload))
	}
	binary.LittleEndian.PutUint16(w.hdr[:2], uint16(len(name)))
	if _, err := w.w.Write(w.hdr[:2]); err != nil {
		return err
	}
	if _, err := io.WriteString(w.w, name); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return err
	}
	_, err = w.w.Write(payload)
	return err
}

// Close writes the end marker. It does not close the underlying
// writer.
func (w *Writer) Close() error {
	binary.LittleEndian.PutUint16(w.hdr[:2], endMarker)
	_, err := w.w.Write(w.hdr[:2])
	return err
}

// Reader validates the header and streams frames back out.
type Reader struct {
	r    *bufio.Reader
	path string // for error context; may be empty
}

// NewReader validates the magic and version of r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, corruptf("", "short header: %v", err)
	}
	if string(magic) != Magic {
		return nil, corruptf("", "bad magic %q", magic)
	}
	var ver uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, corruptf("", "short version field: %v", err)
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads version %d", ErrVersion, ver, Version)
	}
	return &Reader{r: br}, nil
}

// Frame reads the next frame, which must be named name, and restores
// its payload through walk. Reaching the end marker, a name mismatch,
// a CRC mismatch, or truncation all yield an error wrapping
// ErrCorrupt; so does a payload walk does not consume exactly.
func (r *Reader) Frame(name string, walk func(*State)) error {
	gotName, payload, err := r.next()
	if errors.Is(err, errEndMarker) {
		return corruptf(r.path, "unexpected end marker (want frame %q)", name)
	}
	if err != nil {
		return err
	}
	if gotName != name {
		return corruptf(r.path, "frame order: want %q, file has %q", name, gotName)
	}
	if err := Decode(payload, walk); err != nil {
		return fmt.Errorf("checkpoint: frame %q: %w", name, err)
	}
	return nil
}

// errEndMarker signals the frame walker reached the trailer; Frame
// surfaces it as corruption (the caller expected another frame) while
// Verify treats it as the file's clean end.
var errEndMarker = errors.New("checkpoint: end marker")

// next reads one raw frame.
func (r *Reader) next() (name string, payload []byte, err error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return "", nil, corruptf(r.path, "truncated before frame header: %v", err)
	}
	nameLen := binary.LittleEndian.Uint16(hdr[:])
	if nameLen == endMarker {
		return "", nil, errEndMarker
	}
	if nameLen >= maxFrameName {
		return "", nil, corruptf(r.path, "frame name length %d out of range", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(r.r, nameBytes); err != nil {
		return "", nil, corruptf(r.path, "truncated frame name: %v", err)
	}
	var lens [8]byte
	if _, err := io.ReadFull(r.r, lens[:]); err != nil {
		return "", nil, corruptf(r.path, "truncated frame %q header: %v", nameBytes, err)
	}
	payloadLen := binary.LittleEndian.Uint32(lens[0:4])
	wantCRC := binary.LittleEndian.Uint32(lens[4:8])
	if payloadLen > maxFramePayload {
		return "", nil, corruptf(r.path, "frame %q payload length %d out of range", nameBytes, payloadLen)
	}
	payload = make([]byte, payloadLen)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return "", nil, corruptf(r.path, "truncated frame %q payload: %v", nameBytes, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return "", nil, corruptf(r.path, "frame %q CRC mismatch: file %#x, computed %#x", nameBytes, wantCRC, got)
	}
	return string(nameBytes), payload, nil
}

// End consumes the end marker, confirming the file was written to
// completion.
func (r *Reader) End() error {
	var hdr [2]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return corruptf(r.path, "truncated before end marker: %v", err)
	}
	if binary.LittleEndian.Uint16(hdr[:]) != endMarker {
		return corruptf(r.path, "trailing frame where end marker expected")
	}
	return nil
}

// Verify walks an entire checkpoint container structurally — header,
// every frame's name/length/CRC, and the end marker — without
// decoding any payload. It is how untrusted checkpoint bytes (e.g.
// artifacts uploaded by remote workers) are validated before being
// stored: damage anywhere surfaces as ErrCorrupt/ErrVersion, and a
// verified container is guaranteed to at least parse on restore.
// It returns the number of frames seen.
func Verify(r io.Reader) (frames int, err error) {
	cr, err := NewReader(r)
	if err != nil {
		return 0, err
	}
	for {
		if _, _, err := cr.next(); err != nil {
			if errors.Is(err, errEndMarker) {
				return frames, nil
			}
			return frames, err
		}
		frames++
	}
}

// corruptf builds an ErrCorrupt-wrapping error with context.
func corruptf(path, format string, args ...any) error {
	detail := fmt.Sprintf(format, args...)
	if path != "" {
		return fmt.Errorf("%w: %s: %s", ErrCorrupt, path, detail)
	}
	return fmt.Errorf("%w: %s", ErrCorrupt, detail)
}

// Save writes a checkpoint file atomically: fn streams frames into a
// temporary file in path's directory, which is fsynced and renamed
// over path, and the containing directory is fsynced so the rename
// itself is durable — a crash immediately after Save returns cannot
// roll the directory entry back to the old file, let alone a torn
// one. The previous file at path survives any failure. A full device
// surfaces as an error wrapping ErrNoSpace.
func Save(path string, fn func(*Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return saveErr(path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	bw := bufio.NewWriter(tmp)
	w, err := NewWriter(bw)
	if err != nil {
		return saveErr(path, err)
	}
	if err = fn(w); err != nil {
		if noSpace(err) {
			err = saveErr(path, err)
		}
		return err
	}
	if err = w.Close(); err != nil {
		return saveErr(path, err)
	}
	if err = bw.Flush(); err != nil {
		return saveErr(path, err)
	}
	if err = tmp.Sync(); err != nil {
		return saveErr(path, err)
	}
	if err = tmp.Close(); err != nil {
		return saveErr(path, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return saveErr(path, err)
	}
	if err = syncDir(dir); err != nil {
		return saveErr(path, err)
	}
	return nil
}

// saveErr wraps a Save failure with its path, surfacing ENOSPC as the
// typed ErrNoSpace instead of a generic wrap.
func saveErr(path string, err error) error {
	if noSpace(err) {
		return fmt.Errorf("checkpoint: save %s: %w: %v", path, ErrNoSpace, err)
	}
	return fmt.Errorf("checkpoint: save %s: %w", path, err)
}

// noSpace reports whether err is the platform's device-full failure.
func noSpace(err error) bool { return errors.Is(err, syscall.ENOSPC) }

// syncDir fsyncs a directory so a just-renamed entry in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems refuse fsync on directories (EINVAL/ENOTSUP);
		// the rename still happened, so degrade silently there and only
		// propagate real I/O failures.
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			return nil
		}
		return err
	}
	return nil
}

// Load opens path and hands a validated Reader to fn. A missing file
// surfaces as an fs.ErrNotExist-wrapping error so callers can
// distinguish "never checkpointed" from "corrupt".
func Load(path string, fn func(*Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: load: %w", err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return annotate(path, err)
	}
	r.path = path
	if err := fn(r); err != nil {
		return err
	}
	return nil
}

// annotate adds the file path to header-validation errors.
func annotate(path string, err error) error {
	return fmt.Errorf("%s: %w", path, err)
}
