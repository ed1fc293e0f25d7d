package trace

import (
	"bytes"
	"testing"
)

// FuzzRead exercises the binary trace parser on arbitrary input: it
// must never panic, and every trace it accepts must round-trip.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, sampleRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("CARETRC1"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, recs); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed length: %d -> %d", len(recs), len(again))
		}
	})
}
