package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

type plainInner struct {
	F float64
	A [2]int8
}

type plainState struct {
	B   bool
	I   int
	U16 uint16
	S   string
	Xs  []uint32
	In  plainInner
	P   *plainInner
}

// walked holds one of every kind the walk stores.
type walked struct {
	u    uint64
	i    int32
	b    bool
	f    float64
	str  string
	grid []uint8 // two columns
	vs   []int64
	m    map[int][]uint64
	p    plainState
}

func (w *walked) Checkpoint(s *State) {
	Uint(s, &w.u)
	Int(s, &w.i)
	s.Bool(&w.b)
	s.Float64(&w.f)
	s.String(&w.str)
	Grid(s, w.grid, 2, Uints)
	Slice(s, &w.vs, Ints)
	Map(s, w.m, func(s *State, v *[]uint64) { Slice(s, v, Uints) })
	Plain(s, &w.p)
}

func sample() *walked {
	return &walked{
		u: math.MaxUint64, i: -7, b: true, f: math.Copysign(0, -1), str: "care",
		grid: []uint8{1, 2, 3, 255},
		vs:   []int64{math.MinInt64, 0, 5},
		m:    map[int][]uint64{9: {1}, -3: nil, 4: {2, 3}},
		p: plainState{B: true, I: -1, U16: 65535, S: "x", Xs: []uint32{7},
			In: plainInner{F: 1.5, A: [2]int8{-128, 127}}, P: &plainInner{F: math.Inf(-1)}},
	}
}

// fresh is a restore target of sample's shape.
func fresh() *walked {
	return &walked{grid: make([]uint8, 4), m: map[int][]uint64{1: {1}}}
}

func TestStateRoundTrip(t *testing.T) {
	want := sample()
	data, err := Encode(want.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	got := fresh()
	if err := Decode(data, got.Checkpoint); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.f) != math.Float64bits(want.f) {
		t.Fatalf("float bits %x, want %x", math.Float64bits(got.f), math.Float64bits(want.f))
	}
	got.f, want.f = 0, 0
	want.m[-3] = []uint64{} // restored slices are non-nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestStateDeterministic: map iteration order never reaches the bytes.
func TestStateDeterministic(t *testing.T) {
	first, _ := Encode(sample().Checkpoint)
	for i := 0; i < 20; i++ {
		again, _ := Encode(sample().Checkpoint)
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

func TestStateRejectsMalformed(t *testing.T) {
	good, _ := Encode(sample().Checkpoint)
	for _, tc := range []struct {
		name string
		data []byte
		walk func(*State)
		want error
	}{
		{"trailing bytes", append(append([]byte(nil), good...), 0), fresh().Checkpoint, ErrCorrupt},
		{"truncated", good[:len(good)-1], fresh().Checkpoint, ErrCorrupt},
		{"shape", good, (&walked{grid: []uint8{0, 0}, m: map[int][]uint64{}}).Checkpoint, ErrMismatch},
		{"count beyond bytes left", []byte{200, 1}, func(s *State) { var xs []uint8; Slice(s, &xs, Uints) }, ErrCorrupt},
		{"overflow", []byte{0x80, 0x02}, func(s *State) { var x uint8; Uint(s, &x) }, ErrCorrupt},
		{"bool byte", []byte{2}, func(s *State) { var b bool; s.Bool(&b) }, ErrCorrupt},
		{"map keys out of order", []byte{2, 5, 1, 4, 1}, func(s *State) { Map(s, map[uint8]uint8{}, Uint) }, ErrCorrupt},
		{"match", []byte{1, 'a'}, func(s *State) { s.Match("b") }, ErrMismatch},
	} {
		if err := Decode(tc.data, tc.walk); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSaveAppendsUintBytes: a bulk save loop through Save and
// AppendUint stores exactly the bytes Uint does, and Save does nothing
// when restoring or after an error.
func TestSaveAppendsUintBytes(t *testing.T) {
	vals := []uint64{0, 1, 0x7f, 0x80, 0xff, 0x3fff, 0x4000, math.MaxUint32, math.MaxUint64}
	want, _ := Encode(func(s *State) {
		for i := range vals {
			Uint(s, &vals[i])
		}
	})
	got, _ := Encode(func(s *State) {
		s.Save(func(buf []byte) []byte {
			for _, v := range vals {
				buf = AppendUint(buf, v)
			}
			return buf
		})
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("Save with AppendUint stored %x, Uint stores %x", got, want)
	}
	small := []uint8{0, 0x7f, 0x80, 0xff}
	want, _ = Encode(func(s *State) { Uints(s, small) })
	got, _ = Encode(func(s *State) {
		s.Save(func(buf []byte) []byte {
			for _, v := range small {
				buf = AppendUint(buf, v)
			}
			return buf
		})
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("Save with AppendUint stored %x for uint8s, Uints stores %x", got, want)
	}
	called := false
	mark := func(buf []byte) []byte { called = true; return buf }
	if err := Decode(nil, func(s *State) { s.Save(mark) }); err != nil || called {
		t.Fatalf("Save while restoring: err %v, loop ran %v", err, called)
	}
	if _, err := Encode(func(s *State) { s.Fail(ErrCorrupt); s.Save(mark) }); !errors.Is(err, ErrCorrupt) || called {
		t.Fatalf("Save after an error: err %v, loop ran %v", err, called)
	}
}
