package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"care/internal/checkpoint"
	"care/internal/mem"
)

func sampleRecords() []Record {
	return []Record{
		{PC: 0x400100, Addr: 0x7fff0000, IsWrite: false, NonMem: 3},
		{PC: 0x400108, Addr: 0x7fff0040, IsWrite: true, NonMem: 0},
		{PC: 0x400110, Addr: 0x12345678, IsWrite: false, NonMem: 65535},
	}
}

func TestRecordKind(t *testing.T) {
	if (Record{IsWrite: false}).Kind() != mem.Load {
		t.Fatal("read record should be a load")
	}
	if (Record{IsWrite: true}).Kind() != mem.Store {
		t.Fatal("write record should be a store")
	}
}

func TestRecordInstructions(t *testing.T) {
	r := Record{NonMem: 7}
	if got := r.Instructions(); got != 8 {
		t.Fatalf("Instructions() = %d, want 8", got)
	}
}

func TestSliceReader(t *testing.T) {
	s := NewSlice(sampleRecords())
	var got []Record
	for {
		rec, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, rec)
	}
	if !reflect.DeepEqual(got, sampleRecords()) {
		t.Fatalf("slice read mismatch: got %v", got)
	}
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("exhausted slice should keep returning EOF, got %v", err)
	}
	s.Reset()
	rec, err := s.Next()
	if err != nil || rec != sampleRecords()[0] {
		t.Fatalf("after Reset, Next = (%v, %v)", rec, err)
	}
}

func TestSliceInstructions(t *testing.T) {
	s := NewSlice(sampleRecords())
	want := uint64(3+1) + uint64(0+1) + uint64(65535+1)
	if got := s.Instructions(); got != want {
		t.Fatalf("Instructions() = %d, want %d", got, want)
	}
}

func TestLoopingWraps(t *testing.T) {
	s := NewSlice(sampleRecords())
	l := NewLooping(s)
	n := len(sampleRecords())
	for i := 0; i < 3*n; i++ {
		rec, err := l.Next()
		if err != nil {
			t.Fatalf("looping Next: %v", err)
		}
		if want := sampleRecords()[i%n]; rec != want {
			t.Fatalf("record %d = %v, want %v", i, rec, want)
		}
	}
	l.Next()
	l.Reset()
	if rec, err := l.Next(); err != nil || rec != sampleRecords()[0] {
		t.Fatalf("after Reset, Next = (%v, %v), want the first record", rec, err)
	}
}

// TestCheckpointRestoresPosition: the walk of a Copies reader, part way
// into its second pass, restores a fresh copy of it to the same next
// record; a reader that does not walk its state is refused.
func TestCheckpointRestoresPosition(t *testing.T) {
	recs := sampleRecords()
	r := Copies(recs, 2)[1]
	for i := 0; i < len(recs)+1; i++ {
		r.Next()
	}
	payload, err := checkpoint.Encode(func(s *checkpoint.State) { Walk(s, r) })
	if err != nil {
		t.Fatal(err)
	}
	fresh := Copies(recs, 2)[1]
	if err := checkpoint.Decode(payload, func(s *checkpoint.State) { Walk(s, fresh) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*len(recs); i++ {
		want, _ := r.Next()
		if got, _ := fresh.Next(); got != want {
			t.Fatalf("record %d after restore = %v, want %v", i, got, want)
		}
	}
	if _, err := checkpoint.Encode(func(s *checkpoint.State) { Walk(s, NewOffset(bareReader{}, 0)) }); !errors.Is(err, checkpoint.ErrNotCheckpointable) {
		t.Fatalf("walk of a bare reader: got %v, want ErrNotCheckpointable", err)
	}
}

type bareReader struct{}

func (bareReader) Next() (Record, error) { return Record{}, io.EOF }

func TestLoopingRequiresResetter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLooping should panic on a non-Resetter")
		}
	}()
	NewLooping(bareReader{})
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleRecords()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, sampleRecords()) {
		t.Fatalf("round trip mismatch: got %v", got)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTATRACE-------"))); err == nil {
		t.Fatal("Read should reject bad magic")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleRecords()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	b := buf.Bytes()
	if _, err := Read(bytes.NewReader(b[:len(b)-1])); err == nil {
		t.Fatal("Read should report truncated record")
	}
}

func TestCollectBounded(t *testing.T) {
	s := NewSlice(sampleRecords())
	got, err := Collect(s, 2)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if got.Len() != 2 {
		t.Fatalf("Collect(2) returned %d records", got.Len())
	}
}

func TestCollectAll(t *testing.T) {
	s := NewSlice(sampleRecords())
	got, err := Collect(s, 0)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if got.Len() != len(sampleRecords()) {
		t.Fatalf("Collect(0) returned %d records, want %d", got.Len(), len(sampleRecords()))
	}
}

// TestRoundTripQuick property: any record slice survives the binary
// round trip unchanged.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, int(n))
		for i := range recs {
			recs[i] = Record{
				PC:          mem.Addr(rng.Uint64()),
				Addr:        mem.Addr(rng.Uint64()),
				IsWrite:     rng.Intn(2) == 0,
				DependsPrev: rng.Intn(2) == 0,
				NonMem:      uint16(rng.Intn(65536)),
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetReader(t *testing.T) {
	s := NewSlice(sampleRecords())
	o := NewOffset(s, 0x1000)
	r, err := o.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r.Addr != sampleRecords()[0].Addr+0x1000 {
		t.Fatal("offset not applied")
	}
	o.Reset()
	r2, _ := o.Next()
	if r2 != r {
		t.Fatal("Reset should restart the shifted stream")
	}
}

func TestCopies(t *testing.T) {
	recs := sampleRecords()
	copies := Copies(recs, 2)
	if len(copies) != 2 {
		t.Fatalf("%d copies, want 2", len(copies))
	}
	// Copy 1 starts half-way through, shifted into its own address
	// space, and loops past the end of the trace.
	for i := 0; i < 2*len(recs); i++ {
		r, err := copies[1].Next()
		if err != nil {
			t.Fatalf("copy 1 record %d: %v", i, err)
		}
		want := recs[(len(recs)/2+i)%len(recs)]
		want.Addr += mem.Addr(1) << 36
		if r != want {
			t.Fatalf("copy 1 record %d = %v, want %v", i, r, want)
		}
	}
	if r, _ := copies[0].Next(); r != recs[0] {
		t.Fatalf("copy 0 starts with %v, want the unshifted first record %v", r, recs[0])
	}
}

func TestNewSliceAt(t *testing.T) {
	s := NewSliceAt(sampleRecords(), 2)
	r, _ := s.Next()
	if r != sampleRecords()[2] {
		t.Fatal("NewSliceAt should start mid-stream")
	}
	// Wraps modulo length.
	s2 := NewSliceAt(sampleRecords(), 5)
	r2, _ := s2.Next()
	if r2 != sampleRecords()[2] {
		t.Fatal("start index should wrap")
	}
	// Empty records tolerated.
	e := NewSliceAt(nil, 3)
	if _, err := e.Next(); !errors.Is(err, io.EOF) {
		t.Fatal("empty slice should EOF")
	}
}
