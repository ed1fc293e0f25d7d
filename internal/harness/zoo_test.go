package harness

import (
	"reflect"
	"sort"
	"testing"

	"care/internal/policy"
)

// TestZooIsWhatExperimentsRun: the policy zoo is exactly the policies
// the experiments run by default (the comparison set of Figures 7-12,
// the scheme the no-prefetch scalability study adds, and svc's set).
// A new policy needs an experiment that runs it; a policy no
// experiment runs any more leaves the zoo.
func TestZooIsWhatExperimentsRun(t *testing.T) {
	run := map[string]bool{noPrefetchScheme: true}
	for _, s := range append(DefaultSchemes(), svcSchemes...) {
		run[s] = true
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
		t.Fatalf("policy zoo %v, experiments run %v", zoo, want)
	}
}
