package server

import (
	"fmt"
	"path/filepath"
	"testing"
)

// specWith builds a valid spec carrying scheduling fields.
func specWith(priority int, c *Constraints) JobSpec {
	s := testSpec()
	s.Priority = priority
	s.Constraints = c
	return s
}

func mustSubmit(t *testing.T, q *Queue, spec JobSpec) Job {
	t.Helper()
	jb, err := submit(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	return jb
}

func claimAs(t *testing.T, q *Queue, worker string, caps *WorkerCaps) (Job, bool) {
	t.Helper()
	jb, ok, err := q.ClaimFor(worker, 60_000, "", caps)
	if err != nil {
		t.Fatal(err)
	}
	return jb, ok
}

func TestClaimRespectsConstraints(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	big := mustSubmit(t, q, specWith(0, &Constraints{MinCores: 8}))
	labeled := mustSubmit(t, q, specWith(0, &Constraints{Labels: []string{"ssd"}}))
	free := mustSubmit(t, q, specWith(0, nil))

	// A caps-less worker (or the local pool) only sees unconstrained work.
	jb, ok := claimAs(t, q, "anon", nil)
	if !ok || jb.ID != free.ID {
		t.Fatalf("nil-caps worker claimed %+v ok=%v, want %s", jb, ok, free.ID)
	}
	if _, ok := claimAs(t, q, "anon", nil); ok {
		t.Fatal("nil-caps worker claimed a constrained job")
	}

	// A small machine without the label can't take either leftover.
	if _, ok := claimAs(t, q, "small", &WorkerCaps{Cores: 4}); ok {
		t.Fatal("4-core worker claimed an 8-core job")
	}
	// The labeled machine takes the labeled job, the big one the rest.
	jb, ok = claimAs(t, q, "tagged", &WorkerCaps{Cores: 2, Labels: []string{"ssd", "numa"}})
	if !ok || jb.ID != labeled.ID {
		t.Fatalf("labeled worker claimed %+v ok=%v, want %s", jb, ok, labeled.ID)
	}
	jb, ok = claimAs(t, q, "big", &WorkerCaps{Cores: 16, MemMB: 32768})
	if !ok || jb.ID != big.ID {
		t.Fatalf("big worker claimed %+v ok=%v, want %s", jb, ok, big.ID)
	}
}

func TestClaimOrdersByPriorityThenDemandThenAge(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	low := mustSubmit(t, q, specWith(-5, nil))
	easyHigh := mustSubmit(t, q, specWith(10, nil))
	hardHigh := mustSubmit(t, q, specWith(10, &Constraints{MinCores: 8}))
	mid := mustSubmit(t, q, specWith(3, nil))

	caps := &WorkerCaps{Cores: 16}
	// Equal priority: the demanding job goes first to the capable
	// worker, leaving the easy one for anyone; then strict priority
	// order, with age breaking ties.
	want := []string{hardHigh.ID, easyHigh.ID, mid.ID, low.ID}
	for i, id := range want {
		jb, ok := claimAs(t, q, "big", caps)
		if !ok || jb.ID != id {
			t.Fatalf("claim %d = %+v ok=%v, want %s", i, jb, ok, id)
		}
	}
}

func TestPriorityReordersWithoutDisturbingCustody(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	first := mustSubmit(t, q, specWith(0, nil))
	jb, ok := claimAs(t, q, "w1", &WorkerCaps{Cores: 4})
	if !ok || jb.ID != first.ID {
		t.Fatalf("setup claim = %+v ok=%v", jb, ok)
	}
	// A higher-priority submission jumps the pending queue but must
	// never preempt the running job's lease.
	urgent := mustSubmit(t, q, specWith(50, nil))
	mustSubmit(t, q, specWith(0, nil))
	jb2, ok := claimAs(t, q, "w2", &WorkerCaps{Cores: 4})
	if !ok || jb2.ID != urgent.ID {
		t.Fatalf("urgent claim = %+v ok=%v, want %s", jb2, ok, urgent.ID)
	}
	got, err := q.Get(first.ID)
	if err != nil || got.State != StateRunning || got.Worker != "w1" {
		t.Fatalf("running job disturbed by priority submit: %+v err=%v", got, err)
	}
	if err := q.CompleteRemote(first.ID, "w1", jb.Attempts, []byte(`{}`)); err != nil {
		t.Fatalf("original holder fenced out: %v", err)
	}
}

// TestFleetDrainsWithoutStarvation runs an unequal two-worker fleet
// over a mixed backlog: every job must land on a worker that satisfies
// its constraints, and the constrained minority must not be starved by
// the unconstrained majority even though the big worker is also
// eligible for every easy job.
func TestFleetDrainsWithoutStarvation(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	constrained := map[string]bool{}
	for i := 0; i < 12; i++ {
		var c *Constraints
		if i%3 == 0 {
			c = &Constraints{MinCores: 8}
		}
		jb := mustSubmit(t, q, specWith(i%2, c))
		constrained[jb.ID] = c != nil
	}

	smallCaps := &WorkerCaps{Cores: 4, Slots: 1}
	bigCaps := &WorkerCaps{Cores: 16, Slots: 2}
	placed := map[string]string{} // job → worker
	for worker, caps := range map[string]*WorkerCaps{"small": smallCaps, "big": bigCaps} {
		for {
			jb, ok := claimAs(t, q, worker, caps)
			if !ok {
				break
			}
			placed[jb.ID] = worker
			if err := q.CompleteRemote(jb.ID, worker, jb.Attempts, []byte(fmt.Sprintf(`{"by":%q}`, worker))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(placed) != 12 {
		t.Fatalf("fleet drained %d of 12 jobs: %v", len(placed), placed)
	}
	for id, worker := range placed {
		if constrained[id] && worker != "big" {
			t.Fatalf("constrained job %s placed on %s", id, worker)
		}
	}
	for _, jb := range q.Jobs() {
		if jb.State != StateDone {
			t.Fatalf("job %s starved in state %s", jb.ID, jb.State)
		}
	}
}

func TestSubmitValidatesSchedulingFields(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	if _, err := submit(q, specWith(101, nil)); err == nil {
		t.Fatal("priority 101 accepted")
	}
	if _, err := submit(q, specWith(0, &Constraints{MinCores: -1})); err == nil {
		t.Fatal("negative min_cores accepted")
	}
	if _, err := submit(q, specWith(0, &Constraints{Labels: []string{""}})); err == nil {
		t.Fatal("empty label accepted")
	}
}

func TestListPaginatesAndFilters(t *testing.T) {
	q := openTestQueue(t, filepath.Join(t.TempDir(), "journal"))
	var ids []string
	for i := 0; i < 5; i++ {
		spec := testSpec()
		if i%2 == 0 {
			spec.Campaign = "even"
		}
		jb := mustSubmit(t, q, spec)
		ids = append(ids, jb.ID)
	}
	jb, ok := claimAs(t, q, "w1", nil)
	if !ok {
		t.Fatal("claim failed")
	}
	if err := q.CompleteRemote(jb.ID, "w1", jb.Attempts, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}

	// Cursor pagination walks every job exactly once, in ID order.
	var walked []string
	cursor := ""
	for {
		page, total, next := q.List("", "", 2, cursor)
		if total != 5 {
			t.Fatalf("total = %d, want 5", total)
		}
		for _, p := range page {
			walked = append(walked, p.ID)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if len(walked) != 5 {
		t.Fatalf("pagination walked %v, want all of %v", walked, ids)
	}
	for i, id := range ids {
		if walked[i] != id {
			t.Fatalf("pagination order %v, want %v", walked, ids)
		}
	}

	// State and campaign filters compose with paging; totals count the
	// filtered set, not the page.
	page, total, _ := q.List(StateDone, "", 10, "")
	if total != 1 || len(page) != 1 || page[0].ID != jb.ID {
		t.Fatalf("state filter = %v total=%d", page, total)
	}
	page, total, _ = q.List("", "even", 2, "")
	if total != 3 || len(page) != 2 {
		t.Fatalf("campaign filter page=%v total=%d", page, total)
	}
	page, total, _ = q.List(StatePending, "even", 10, "")
	for _, p := range page {
		if p.ID == jb.ID {
			t.Fatalf("done job leaked into pending filter: %v", page)
		}
	}
	if total != 3-boolToInt(jb.Spec.Campaign == "even") {
		t.Fatalf("composed filter total=%d page=%v", total, page)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSchedulingSurvivesRestart proves Campaign/Priority/Constraints
// ride the journal: after reopening, a constrained pending job is
// still invisible to an incapable worker.
func TestSchedulingSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	q := openTestQueue(t, path)
	spec := specWith(7, &Constraints{MinCores: 8})
	spec.Campaign = "restart-proof"
	jb := mustSubmit(t, q, spec)
	q.Close()

	q2 := openTestQueue(t, path)
	got, err := q2.Get(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Priority != 7 || got.Spec.Campaign != "restart-proof" ||
		got.Spec.Constraints == nil || got.Spec.Constraints.MinCores != 8 {
		t.Fatalf("scheduling fields lost across replay: %+v", got.Spec)
	}
	if _, ok := claimAs(t, q2, "small", &WorkerCaps{Cores: 2}); ok {
		t.Fatal("replayed constraint not enforced")
	}
	if jb2, ok := claimAs(t, q2, "big", &WorkerCaps{Cores: 8}); !ok || jb2.ID != jb.ID {
		t.Fatalf("capable claim after replay = %+v ok=%v", jb2, ok)
	}
}
