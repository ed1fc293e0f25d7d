package harness

import (
	"reflect"
	"sort"
	"testing"

	"care/internal/policy"
)

// unrunInsertionFamily is the one part of the zoo no experiment runs:
// the set-dueling insertion policies. It is listed here so that the
// zoo cannot grow another policy without an experiment, and shrinks
// when the family goes.
var unrunInsertionFamily = []policy.Policy{policy.BIP, policy.BRRIP, policy.DIP, policy.DRRIP, policy.LIP}

// TestZooIsWhatExperimentsRun: the policy zoo is exactly the policies
// the experiments run by default (the comparison set of Figures 7-12,
// the scheme the no-prefetch scalability study adds, and svc's set)
// plus the unrun insertion family. A new policy needs an experiment
// that runs it; a policy no experiment runs any more leaves the zoo.
func TestZooIsWhatExperimentsRun(t *testing.T) {
	run := map[string]bool{noPrefetchScheme: true}
	for _, s := range append(DefaultSchemes(), svcSchemes...) {
		run[s] = true
	}
	for _, p := range unrunInsertionFamily {
		if run[string(p)] {
			t.Errorf("%q is run by an experiment; drop it from unrunInsertionFamily", p)
		}
		run[string(p)] = true
	}
	var want []string
	for s := range run {
		want = append(want, s)
	}
	sort.Strings(want)
	var zoo []string
	for _, p := range policy.All() {
		zoo = append(zoo, string(p))
	}
	if !reflect.DeepEqual(zoo, want) {
		t.Fatalf("policy zoo %v, experiments run %v plus %v", zoo, want, unrunInsertionFamily)
	}
}
