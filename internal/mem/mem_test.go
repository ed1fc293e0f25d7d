package mem

import (
	"testing"
	"testing/quick"
)

func TestAddrBlockAlignment(t *testing.T) {
	a := Addr(0x1234_5678)
	if a.Block()%BlockSize != 0 {
		t.Fatalf("Block() not aligned: %#x", uint64(a.Block()))
	}
	if a.Block() > a {
		t.Fatal("Block() must not exceed the address")
	}
	if a-a.Block() != Addr(a.Offset()) {
		t.Fatal("Block + Offset must reconstruct the address")
	}
}

func TestAddrBlockID(t *testing.T) {
	if Addr(0).BlockID() != 0 {
		t.Fatal("block 0")
	}
	if Addr(BlockSize).BlockID() != 1 {
		t.Fatal("block 1")
	}
	if Addr(BlockSize*7+13).BlockID() != 7 {
		t.Fatal("offset must not change BlockID")
	}
}

func TestAddrProperties(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw)
		return a.Block()%BlockSize == 0 &&
			a.Offset() < BlockSize &&
			uint64(a.Block())+a.Offset() == raw &&
			a.Block().BlockID() == a.BlockID()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Load:      "load",
		Store:     "store",
		Prefetch:  "prefetch",
		Writeback: "writeback",
		Kind(99):  "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindIsDemand(t *testing.T) {
	if !Load.IsDemand() || !Store.IsDemand() {
		t.Fatal("loads and stores are demand accesses")
	}
	if Prefetch.IsDemand() || Writeback.IsDemand() {
		t.Fatal("prefetches and writebacks are not demand accesses")
	}
}

func TestRequestRespondOnce(t *testing.T) {
	calls := 0
	r := &Request{Owner: CompleteFunc(func(uint32, uint64) { calls++ })}
	r.Respond(10)
	r.Respond(11)
	if calls != 1 {
		t.Fatalf("Owner completed %d times, want exactly 1", calls)
	}
}

func TestRequestRespondNilSafe(t *testing.T) {
	r := &Request{}
	r.Respond(5) // must not panic
}

func TestRequestString(t *testing.T) {
	r := &Request{ID: 1, Core: 2, Kind: Load, PC: 0x10, Addr: 0x40}
	if s := r.String(); s == "" {
		t.Fatal("String() should not be empty")
	}
}
