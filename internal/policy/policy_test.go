package policy_test

import (
	"errors"
	"sort"
	"testing"

	careplc "care/internal/core/care"
	"care/internal/policy"
)

// TestParseRoundTrip: Parse(p.String()) == p for the whole zoo, and
// every constant validates.
func TestParseRoundTrip(t *testing.T) {
	all := policy.All()
	if len(all) == 0 {
		t.Fatal("empty policy zoo")
	}
	for _, p := range all {
		got, err := policy.Parse(p.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", p, err)
			continue
		}
		if got != p {
			t.Errorf("Parse(%q) = %q, want identity", p, got)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%q.Validate(): %v", p, err)
		}
	}
}

// TestParseUnknown: names outside the zoo fail with the typed
// *ErrUnknown carrying the offending name, at parse time.
func TestParseUnknown(t *testing.T) {
	for _, name := range []string{"", "lruu", "CARE", "ship+++", "plru"} {
		_, err := policy.Parse(name)
		var unknown *policy.ErrUnknown
		if !errors.As(err, &unknown) {
			t.Fatalf("Parse(%q): got %v, want *ErrUnknown", name, err)
		}
		if unknown.Name != name {
			t.Fatalf("Parse(%q): error names %q", name, unknown.Name)
		}
		if err := policy.Policy(name).Validate(); !errors.As(err, &unknown) {
			t.Fatalf("Policy(%q).Validate(): got %v, want *ErrUnknown", name, err)
		}
	}
}

// TestAllSorted: All returns a sorted copy callers may mutate.
func TestAllSorted(t *testing.T) {
	a := policy.All()
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatalf("All() not sorted: %v", a)
	}
	a[0] = "mutated"
	if policy.All()[0] == "mutated" {
		t.Fatal("All() exposes internal storage")
	}
}

// TestNewBuildsEveryPolicy: every policy in the zoo builds, at one
// core and at four, an instance that names itself by its Policy, and
// a name outside the zoo fails with the typed *ErrUnknown, so a Policy
// that validates always constructs and one that does not never does.
func TestNewBuildsEveryPolicy(t *testing.T) {
	for _, p := range policy.All() {
		for _, cores := range []int{1, 4} {
			pol, err := policy.New(p, cores, careplc.Config{})
			if err != nil {
				t.Fatalf("New(%q, %d): %v", p, cores, err)
			}
			if got := pol.Name(); got != string(p) {
				t.Errorf("New(%q, %d).Name() = %q", p, cores, got)
			}
		}
	}
	for _, name := range []string{"", "plru", "CARE"} {
		_, err := policy.New(policy.Policy(name), 1, careplc.Config{})
		var unknown *policy.ErrUnknown
		if !errors.As(err, &unknown) || unknown.Name != name {
			t.Errorf("New(%q): got %v, want *ErrUnknown naming it", name, err)
		}
	}
}
