package policy_test

import (
	"reflect"
	"testing"

	"care/internal/policy"
)

// TestCapabilitiesLockstep: the cache library's policy set is exactly
// the portable half of the zoo, and a name outside the zoo is not
// portable. This is the guarantee care/cache relies on to reject
// unsupported policies at construction instead of panicking at first
// access.
func TestCapabilitiesLockstep(t *testing.T) {
	want := []policy.Policy{policy.CARE, policy.LRU, policy.MCARE, policy.SHiPPP, policy.SRRIP}
	if got := policy.Portable(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Portable() = %v, want %v", got, want)
	}
	if policy.Policy("plru").Portable() {
		t.Fatal(`"plru" is outside the zoo but reports portable`)
	}
}

// TestCapabilitiesAnchors pins the classifications the rest of the
// repo depends on: the paper's own policy must be portable (the whole
// point of the cache library) and the OPT-reconstructing predictors,
// which need simulator state, must not be.
func TestCapabilitiesAnchors(t *testing.T) {
	for _, p := range []policy.Policy{policy.LRU, policy.SRRIP, policy.SHiPPP, policy.CARE, policy.MCARE} {
		if !p.Portable() {
			t.Errorf("%q: want portable", p)
		}
	}
	for _, p := range []policy.Policy{policy.Hawkeye, policy.Glider, policy.Mockingjay} {
		if p.Portable() {
			t.Errorf("%q: want simulator-bound", p)
		}
	}
}

// TestPortableSubset: Portable() is a sorted, validated subset of
// All() holding only policies that report portable.
func TestPortableSubset(t *testing.T) {
	portable := policy.Portable()
	if len(portable) == 0 {
		t.Fatal("no portable policies")
	}
	for i, p := range portable {
		if i > 0 && portable[i-1] >= p {
			t.Fatalf("Portable() not sorted at %d: %v", i, portable)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%q: %v", p, err)
		}
		if !p.Portable() {
			t.Fatalf("%q in Portable() but not portable", p)
		}
	}
}
