// Package trace defines the instruction-trace format replayed by the
// simulated cores, plus readers, writers, and helpers for composing
// and transforming traces.
//
// A trace is a sequence of Records. Each Record describes one memory
// instruction together with the number of non-memory instructions that
// precede it, which lets the core model account for every instruction
// in the original program without storing them all. This mirrors how
// ChampSim traces carry full instruction streams, compressed to what
// the memory system needs.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"care/internal/checkpoint"
	"care/internal/mem"
)

// ErrCorrupt marks a structurally invalid trace: bad magic, a
// truncated record, or an underlying read failure mid-stream. Callers
// can match it with errors.Is to distinguish malformed input from a
// cleanly exhausted trace (io.EOF).
var ErrCorrupt = errors.New("trace: corrupt trace")

// Record is one memory instruction in a trace.
type Record struct {
	// PC is the program counter of the memory instruction.
	PC mem.Addr
	// Addr is the virtual address accessed.
	Addr mem.Addr
	// IsWrite marks stores.
	IsWrite bool
	// DependsPrev marks a load whose address depends on the previous
	// memory instruction's result (pointer chasing). The core model
	// serialises such accesses, which is what creates isolated
	// (high-PMC) misses as opposed to overlapped (low-PMC) ones.
	DependsPrev bool
	// NonMem is the number of non-memory instructions retired
	// immediately before this one.
	NonMem uint16
}

// Kind returns the access kind of the record.
func (r Record) Kind() mem.Kind {
	if r.IsWrite {
		return mem.Store
	}
	return mem.Load
}

// Instructions returns the number of instructions this record accounts
// for: the memory instruction itself plus its NonMem predecessors.
func (r Record) Instructions() uint64 { return uint64(r.NonMem) + 1 }

// Reader produces trace records one at a time. Next returns io.EOF
// when the trace is exhausted. Implementations must be deterministic:
// two readers produced from the same source yield identical streams.
type Reader interface {
	Next() (Record, error)
}

// Resetter is implemented by readers that can restart from the
// beginning. The simulator uses it to replay a benchmark that finished
// early in a mixed workload (paper §VI: "it is replayed until each
// benchmark has finished running").
type Resetter interface {
	Reset()
}

// Bounded is implemented by readers that can promise future progress:
// RemainingRecords returns an n such that the next n calls to Next
// are guaranteed to succeed (no EOF, no error), plus whether any such
// bound is known. The simulator never asks, and no reader in this
// module implements it; perfbench's countingReader (a separate module)
// still names it and reports (0, false) for a source without it.
type Bounded interface {
	RemainingRecords() (uint64, bool)
}

// Walk walks r's state as a checkpoint.Component, or fails the walk
// with checkpoint.ErrNotCheckpointable if r is not one.
func Walk(s *checkpoint.State, r Reader) {
	if c, ok := r.(checkpoint.Component); ok {
		c.Checkpoint(s)
	} else {
		s.Fail(fmt.Errorf("%w: trace reader %T does not walk its state", checkpoint.ErrNotCheckpointable, r))
	}
}

// Slice is an in-memory trace. It implements Reader and Resetter.
type Slice struct {
	Records []Record
	pos     int
}

// NewSlice wraps records in a replayable reader.
func NewSlice(records []Record) *Slice { return &Slice{Records: records} }

// NewSliceAt wraps records starting from position start (mod len).
// Multi-copy workloads use it to desynchronise identical traces, like
// the paper's unsynchronised trace starts (§VI).
func NewSliceAt(records []Record, start int) *Slice {
	if len(records) > 0 {
		start %= len(records)
	} else {
		start = 0
	}
	return &Slice{Records: records, pos: start}
}

// Next implements Reader.
func (s *Slice) Next() (Record, error) {
	if s.pos >= len(s.Records) {
		return Record{}, io.EOF
	}
	r := s.Records[s.pos]
	s.pos++
	return r, nil
}

// Reset implements Resetter.
func (s *Slice) Reset() { s.pos = 0 }

// Checkpoint implements checkpoint.Component: the record count, which
// a restore must match, and the position.
func (s *Slice) Checkpoint(st *checkpoint.State) {
	pos := uint64(s.pos)
	st.Shape(len(s.Records))
	checkpoint.Index(st, &pos, len(s.Records)+1, "trace position")
	s.pos = int(pos)
}

// Len returns the number of records.
func (s *Slice) Len() int { return len(s.Records) }

// Instructions returns the total instruction count of the trace.
func (s *Slice) Instructions() uint64 {
	var n uint64
	for _, r := range s.Records {
		n += r.Instructions()
	}
	return n
}

// Looping wraps a Reader+Resetter so that it never returns io.EOF:
// when the underlying trace ends it restarts from the beginning.
type Looping struct {
	src Reader
}

// NewLooping returns a looping view of src, which must also implement
// Resetter.
func NewLooping(src Reader) *Looping {
	if _, ok := src.(Resetter); !ok {
		panic("trace: NewLooping requires a Resetter")
	}
	return &Looping{src: src}
}

// Next implements Reader; it only fails if the source trace is empty.
func (l *Looping) Next() (Record, error) {
	rec, err := l.src.Next()
	if err == nil {
		return rec, nil
	}
	if !errors.Is(err, io.EOF) {
		return Record{}, err
	}
	l.src.(Resetter).Reset()
	rec, err = l.src.Next()
	if err != nil {
		return Record{}, fmt.Errorf("trace: empty looping source: %w", err)
	}
	return rec, nil
}

// Reset implements Resetter.
func (l *Looping) Reset() { l.src.(Resetter).Reset() }

// Checkpoint implements checkpoint.Component: the source's walk.
func (l *Looping) Checkpoint(s *checkpoint.State) { Walk(s, l.src) }

// binary trace file format:
//
//	magic "CARETRC1" (8 bytes)
//	then repeated records, little-endian:
//	  pc   uint64
//	  addr uint64
//	  flags uint16 (bit0 = write)
//	  nonmem uint16
var magic = [8]byte{'C', 'A', 'R', 'E', 'T', 'R', 'C', '1'}

const recordSize = 8 + 8 + 2 + 2

// Write serialises records to w in the binary trace format.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("trace: write magic: %w", err)
	}
	var buf [recordSize]byte
	for _, r := range records {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.PC))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.Addr))
		var flags uint16
		if r.IsWrite {
			flags |= 1
		}
		if r.DependsPrev {
			flags |= 2
		}
		binary.LittleEndian.PutUint16(buf[16:], flags)
		binary.LittleEndian.PutUint16(buf[18:], r.NonMem)
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("trace: write record: %w", err)
		}
	}
	return bw.Flush()
}

// Read deserialises an entire binary trace from r.
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: read magic: %v", ErrCorrupt, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic (not a CARE trace file)", ErrCorrupt)
	}
	var records []Record
	var buf [recordSize]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if errors.Is(err, io.EOF) {
			return records, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: read record: %v", ErrCorrupt, err)
		}
		flags := binary.LittleEndian.Uint16(buf[16:])
		records = append(records, Record{
			PC:          mem.Addr(binary.LittleEndian.Uint64(buf[0:])),
			Addr:        mem.Addr(binary.LittleEndian.Uint64(buf[8:])),
			IsWrite:     flags&1 != 0,
			DependsPrev: flags&2 != 0,
			NonMem:      binary.LittleEndian.Uint16(buf[18:]),
		})
	}
}

// OffsetReader shifts every record's address by a fixed delta. It
// gives each copy of a multi-copy workload its own address space, as
// separate processes would have.
type OffsetReader struct {
	src   Reader
	delta mem.Addr
}

// NewOffset wraps src, adding delta to every address.
func NewOffset(src Reader, delta mem.Addr) *OffsetReader {
	return &OffsetReader{src: src, delta: delta}
}

// Copies builds cores copies of one trace, the multi-copy methodology
// of the paper (§VI): copy i starts at record i·len/cores so the
// copies run desynchronised, loops forever, and has its addresses
// shifted by i<<36 so each copy has its own address space.
func Copies(records []Record, cores int) []Reader {
	out := make([]Reader, cores)
	for i := range out {
		out[i] = NewOffset(
			NewLooping(NewSliceAt(records, i*len(records)/cores)),
			mem.Addr(uint64(i)<<36))
	}
	return out
}

// Next implements Reader.
func (o *OffsetReader) Next() (Record, error) {
	r, err := o.src.Next()
	if err != nil {
		return Record{}, err
	}
	r.Addr += o.delta
	return r, nil
}

// Reset implements Resetter when the source supports it.
func (o *OffsetReader) Reset() { o.src.(Resetter).Reset() }

// Checkpoint implements checkpoint.Component: the source's walk.
func (o *OffsetReader) Checkpoint(s *checkpoint.State) { Walk(s, o.src) }

// Collect drains up to n records from a Reader into a Slice. It stops
// early at io.EOF. n <= 0 collects until EOF (beware unbounded
// generators).
func Collect(r Reader, n int) (*Slice, error) {
	var out []Record
	for n <= 0 || len(out) < n {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return NewSlice(out), nil
}
