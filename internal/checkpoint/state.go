package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
)

// Component is implemented by every stateful simulator component.
// Checkpoint lists the component's dynamic fields once, in a fixed
// order, through s: saving appends each value to the frame payload,
// restoring reads it back into the same field. The payload is
// therefore a pure function of the state. Fix-ups that only a restore
// needs (rebuilding a derived index) go behind s.Restoring(); saving
// never changes the component.
//
// Restoring targets an identically configured, freshly constructed
// component. A dimension that does not fit it fails the walk with an
// error wrapping ErrMismatch, malformed bytes with ErrCorrupt. A
// failed restore leaves the component unusable: build a new one.
type Component interface {
	Checkpoint(s *State)
}

// State is one frame payload being saved or restored. Its first error
// sticks: every later call is a no-op, so a walk need not check after
// each field.
type State struct {
	restoring bool
	buf       []byte // saving: the payload so far; restoring: the bytes left
	err       error
}

// Encode runs walk in saving mode and returns the payload.
func Encode(walk func(*State)) ([]byte, error) {
	s := &State{}
	walk(s)
	return s.buf, s.err
}

// Decode runs walk in restoring mode over payload. Bytes the walk
// leaves unread fail it with ErrCorrupt.
func Decode(payload []byte, walk func(*State)) error {
	s := &State{restoring: true, buf: payload}
	walk(s)
	if s.err == nil && len(s.buf) != 0 {
		s.corruptf("%d trailing bytes", len(s.buf))
	}
	return s.err
}

// Restoring reports whether the walk reads values back (true) or
// appends them (false).
func (s *State) Restoring() bool { return s.restoring }

// Err returns the walk's first error.
func (s *State) Err() error { return s.err }

// Fail records err as the walk's error unless it already has one.
func (s *State) Fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *State) corruptf(format string, args ...any) {
	s.Fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// Mismatchf builds an error wrapping ErrMismatch, for components
// rejecting state that does not fit their configuration.
func Mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMismatch, fmt.Sprintf(format, args...))
}

// uvarint walks one unsigned varint: saving appends *v, restoring
// reads it into *v and reports true. A stored value above max is
// ErrCorrupt.
func (s *State) uvarint(v *uint64, max uint64) bool {
	switch {
	case s.err != nil:
		return false
	case !s.restoring:
		s.buf = binary.AppendUvarint(s.buf, *v)
		return false
	}
	x, n := binary.Uvarint(s.buf)
	switch {
	case n <= 0:
		s.corruptf("bad varint")
		return false
	case x > max:
		s.corruptf("%d overflows a %d-bit field", x, bits.Len64(max))
		return false
	}
	*v, s.buf = x, s.buf[n:]
	return true
}

// varint walks one zigzag-encoded signed varint: saving appends *v,
// restoring reads it into *v and reports true.
func (s *State) varint(v *int64) bool {
	switch {
	case s.err != nil:
		return false
	case !s.restoring:
		s.buf = binary.AppendVarint(s.buf, *v)
		return false
	}
	x, n := binary.Varint(s.buf)
	if n <= 0 {
		s.corruptf("bad varint")
		return false
	}
	*v, s.buf = x, s.buf[n:]
	return true
}

// Unsigned and Signed are the integer types the walk stores as
// varints.
type (
	Unsigned interface {
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
	}
	Signed interface {
		~int | ~int8 | ~int16 | ~int32 | ~int64
	}
)

// Uint walks an unsigned integer. A stored value out of T's range is
// ErrCorrupt.
func Uint[T Unsigned](s *State, v *T) {
	x := uint64(*v)
	if s.uvarint(&x, uint64(^T(0))) {
		*v = T(x)
	}
}

// Int walks a signed integer. A stored value out of T's range is
// ErrCorrupt.
func Int[T Signed](s *State, v *T) {
	x := int64(*v)
	if s.varint(&x) {
		if int64(T(x)) != x {
			s.corruptf("%d overflows %T", x, *v)
			return
		}
		*v = T(x)
	}
}

// Index walks a stored index into a table of n entries; restoring a
// value outside [0, n) fails the walk with ErrCorrupt.
func Index[T Unsigned](s *State, v *T, n int, what string) {
	Uint(s, v)
	if s.restoring && s.err == nil && uint64(*v) >= uint64(n) {
		s.corruptf("%s %d out of range [0, %d)", what, *v, n)
	}
}

// Bool walks a bool as one byte; any byte but 0 or 1 is ErrCorrupt.
func (s *State) Bool(v *bool) {
	x := uint64(boolByte(*v))
	if s.uvarint(&x, 1) {
		*v = x == 1
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Float64 walks a float64 as its eight IEEE-754 bytes, so every value
// round-trips bit for bit.
func (s *State) Float64(v *float64) {
	if s.err != nil {
		return
	}
	if !s.restoring {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, math.Float64bits(*v))
		return
	}
	if len(s.buf) < 8 {
		s.corruptf("truncated float")
		return
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(s.buf))
	s.buf = s.buf[8:]
}

// String walks a length-prefixed string.
func (s *State) String(v *string) {
	n := s.Count(len(*v))
	switch {
	case s.err != nil:
	case s.restoring:
		*v, s.buf = string(s.buf[:n]), s.buf[n:]
	default:
		s.buf = append(s.buf, *v...)
	}
}

// Shape walks a dimension the restoring component already has, such
// as a set count or a core count: saving stores n, restoring fails
// with ErrMismatch unless the stored dimension is n. It reports
// whether the walk is still good.
func (s *State) Shape(n int) bool {
	x := uint64(n)
	s.uvarint(&x, math.MaxUint64)
	if s.restoring && s.err == nil && x != uint64(n) {
		s.Fail(Mismatchf("stored dimension %d, restoring component has %d", x, n))
	}
	return s.err == nil
}

// Count walks a variable element count: saving stores n and returns
// it; restoring returns the stored count once it is checked against
// the bytes left, so nothing is allocated for a count the payload
// cannot hold (every element stores at least one byte). After a
// failure Count returns 0.
func (s *State) Count(n int) int {
	x := uint64(n)
	s.uvarint(&x, math.MaxUint64)
	if s.err != nil {
		return 0
	}
	if s.restoring && x > uint64(len(s.buf)) {
		s.corruptf("count %d exceeds the %d bytes left", x, len(s.buf))
		return 0
	}
	return int(x)
}

// Match walks an identifying string the restoring component already
// has, such as an attached prefetcher's name: restoring fails with
// ErrMismatch unless the stored string is want.
func (s *State) Match(want string) {
	got := want
	s.String(&got)
	if s.restoring && s.err == nil && got != want {
		s.Fail(Mismatchf("stored %q, restoring component has %q", got, want))
	}
}

// Table walks a slice whose length the restoring component already
// has: its Shape, then its elements through walk, which stores no
// length (a bulk walker such as Uints, or a component's own loop).
func Table[T any](s *State, xs []T, walk func(*State, []T)) {
	if s.Shape(len(xs)) {
		walk(s, xs)
	}
}

// Each walks a slice whose length the restoring component already
// has (a Shape), element by element. Tables of numbers or bools walk
// through Table and a bulk walker instead.
func Each[T any](s *State, xs []T, walk func(*State, *T)) {
	if !s.Shape(len(xs)) {
		return
	}
	for i := range xs {
		walk(s, &xs[i])
	}
}

// Grid walks a table of fixed shape held flat, row after row, such as
// per-set, per-way replacement state indexed set*ways+way: its row
// count, then each row of width (> 0) elements as a Table.
func Grid[T any](s *State, xs []T, width int, walk func(*State, []T)) {
	if !s.Shape(len(xs) / width) {
		return
	}
	for i := 0; i < len(xs); i += width {
		Table(s, xs[i:i+width:i+width], walk)
	}
}

// Slice walks a variable-length slice: its Count, then its elements
// through walk. Restoring replaces *xs with a fresh slice of the
// stored length.
func Slice[T any](s *State, xs *[]T, walk func(*State, []T)) {
	n := s.Count(len(*xs))
	if s.err != nil {
		return
	}
	if s.restoring {
		*xs = make([]T, n)
	}
	walk(s, *xs)
}

// The bulk walkers walk every element of a table of numbers or bools
// and store no length: Table, Grid and Slice store it, and an array's
// is fixed by its type. Saving appends the elements in one loop;
// restoring reads each back with the checks Uint, Int, Bool and Index
// make, so a bulk walk stores and accepts exactly the bytes an
// element-by-element one does.

// Uints walks each element of xs as Uint does.
func Uints[T Unsigned](s *State, xs []T) {
	if s.err != nil {
		return
	}
	if !s.restoring {
		buf := s.buf
		for _, x := range xs {
			buf = binary.AppendUvarint(buf, uint64(x))
		}
		s.buf = buf
		return
	}
	for i := range xs {
		Uint(s, &xs[i])
	}
}

// Ints walks each element of xs as Int does.
func Ints[T Signed](s *State, xs []T) {
	if s.err != nil {
		return
	}
	if !s.restoring {
		buf := s.buf
		for _, x := range xs {
			buf = binary.AppendVarint(buf, int64(x))
		}
		s.buf = buf
		return
	}
	for i := range xs {
		Int(s, &xs[i])
	}
}

// Bools walks each element of xs as Bool does.
func Bools(s *State, xs []bool) {
	if s.err != nil {
		return
	}
	if !s.restoring {
		buf := s.buf
		for _, x := range xs {
			buf = append(buf, boolByte(x))
		}
		s.buf = buf
		return
	}
	for i := range xs {
		s.Bool(&xs[i])
	}
}

// Indexes walks each element of xs as Index does: restoring a value
// outside [0, n) fails the walk with ErrCorrupt.
func Indexes[T Unsigned](s *State, xs []T, n int, what string) {
	if !s.restoring {
		Uints(s, xs)
		return
	}
	for i := range xs {
		Index(s, &xs[i], n, what)
	}
}

// Save runs a component's own bulk save loop, for a table whose
// elements are records rather than numbers: when saving, and no
// earlier call failed, fn is given the payload so far and returns it
// with the values appended through AppendUint. It does nothing when
// restoring; the component reads the same values back with Uint, so
// the restore keeps its checks.
func (s *State) Save(fn func(buf []byte) []byte) {
	if s.err == nil && !s.restoring {
		s.buf = fn(s.buf)
	}
}

// AppendUint appends v to buf as Uint stores it.
func AppendUint[T Unsigned](buf []byte, v T) []byte {
	if v < 0x80 {
		return append(buf, byte(v))
	}
	return binary.AppendUvarint(buf, uint64(v))
}

// Map walks a map in ascending key order. Restoring empties m and
// refills it; stored keys must be strictly ascending (ErrCorrupt), so
// every map has exactly one encoding.
func Map[K Unsigned | Signed, V any](s *State, m map[K]V, walk func(*State, *V)) {
	if !s.restoring {
		keys := make([]K, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		s.Count(len(keys))
		for _, k := range keys {
			x := uint64(k)
			s.uvarint(&x, math.MaxUint64)
			v := m[k]
			walk(s, &v)
		}
		return
	}
	n := s.Count(0)
	clear(m)
	var prev K
	for i := 0; i < n && s.err == nil; i++ {
		var x uint64
		s.uvarint(&x, math.MaxUint64)
		k := K(x)
		if s.err == nil && (uint64(k) != x || (i > 0 && k <= prev)) {
			s.corruptf("map key %d out of order or range", x)
		}
		if s.err != nil {
			return
		}
		var v V
		walk(s, &v)
		m[k], prev = v, k
	}
}

// Plain walks an exported plain-data struct (a Stats type, a trace
// record, a telemetry interval) through reflection, field by field in
// declaration order. It is for one-off structs: a struct a save walks
// once per table entry has a typed walk instead. Slices are
// variable-length, arrays fixed, and a pointer field stores whether it
// is set. Types the walk cannot store are a programming error and
// panic.
func Plain[T any](s *State, v *T) { s.plain(reflect.ValueOf(v).Elem()) }

func (s *State) plain(v reflect.Value) {
	if s.err != nil {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		b := v.Bool()
		s.Bool(&b)
		if s.restoring {
			v.SetBool(b)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := v.Int()
		s.varint(&x)
		if s.restoring && s.err == nil {
			if v.OverflowInt(x) {
				s.corruptf("%d overflows %s", x, v.Type())
				return
			}
			v.SetInt(x)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := v.Uint()
		s.uvarint(&x, math.MaxUint64)
		if s.restoring && s.err == nil {
			if v.OverflowUint(x) {
				s.corruptf("%d overflows %s", x, v.Type())
				return
			}
			v.SetUint(x)
		}
	case reflect.Float64:
		f := v.Float()
		s.Float64(&f)
		if s.restoring {
			v.SetFloat(f)
		}
	case reflect.String:
		str := v.String()
		s.String(&str)
		if s.restoring {
			v.SetString(str)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			s.plain(v.Index(i))
		}
	case reflect.Slice:
		n := s.Count(v.Len())
		if s.restoring {
			if s.err != nil {
				return
			}
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		for i := 0; i < n; i++ {
			s.plain(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanInterface() {
				panic(fmt.Sprintf("checkpoint: Plain cannot walk unexported field %s.%s", v.Type(), v.Type().Field(i).Name))
			}
			s.plain(f)
		}
	case reflect.Pointer:
		set := !v.IsNil()
		s.Bool(&set)
		if s.restoring {
			if s.err != nil {
				return
			}
			v.Set(reflect.Zero(v.Type()))
			if set {
				v.Set(reflect.New(v.Type().Elem()))
			}
		}
		if set {
			s.plain(v.Elem())
		}
	default:
		panic(fmt.Sprintf("checkpoint: Plain cannot walk %s", v.Type()))
	}
}
