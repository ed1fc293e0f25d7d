// Package studycase reproduces the paper's §III-B concurrent-access
// study case (Figure 2) and the metric values it derives: the
// MLP-based costs of Table I and the PMC values of Table II. It is
// shared by the golden unit tests, the tab1/tab2 experiments, and the
// mlp-vs-pmc example.
package studycase

import (
	"fmt"
	"sort"
	"strings"

	"care/internal/cache"
	"care/internal/core/pmc"
	"care/internal/mem"
)

// Access is one access of the study case.
type Access struct {
	// Name labels the access (A..F).
	Name string
	// Arrive is the 1-indexed arrival cycle.
	Arrive uint64
	// Miss marks accesses that miss in the cache.
	Miss bool
}

// Result summarises the metrics of one access after the run.
type Result struct {
	Name string
	// MLPCost is the MLP-based cost (Table I); zero for hits.
	MLPCost float64
	// PMC is the pure miss contribution (Table II); zero for hits.
	PMC float64
	// PureCycles is the number of active pure miss cycles the access
	// participated in.
	PureCycles uint64
	// HitOverlapped reports hit-miss overlapping during the miss.
	HitOverlapped bool
}

// Config is the timing of the study case: every access spends
// BaseCycles in tag lookup and misses spend MissCycles more.
type Config struct {
	BaseCycles uint64
	MissCycles uint64
}

// PaperConfig is the configuration of Figure 2: two base access
// cycles and six additional miss access cycles.
var PaperConfig = Config{BaseCycles: 2, MissCycles: 6}

// PaperAccesses is the access stream of Figure 2. B and F are hits;
// A, C, D and E are misses. The arrival cycles are reconstructed from
// the costs the paper reports: they reproduce Table I and Table II
// exactly.
var PaperAccesses = []Access{
	{Name: "A", Arrive: 1, Miss: true},
	{Name: "B", Arrive: 3, Miss: false},
	{Name: "C", Arrive: 5, Miss: true},
	{Name: "D", Arrive: 7, Miss: true},
	{Name: "E", Arrive: 7, Miss: true},
	{Name: "F", Arrive: 8, Miss: false},
}

// Run replays the access stream through the PMC measurement logic
// (Algorithm 1), which also measures the MLP-based cost, all
// attributed to a single core, and returns per-access results plus
// the total active pure miss cycles.
func Run(cfg Config, accesses []Access) ([]Result, uint64) {
	logic := pmc.New(cfg.BaseCycles, 1)
	mshr := cache.NewMSHR(len(accesses)+1, 1)

	type missState struct {
		idx   int
		entry *cache.MSHREntry
		start uint64 // first miss access cycle
		end   uint64 // last miss access cycle (inclusive)
	}
	var misses []*missState
	results := make([]Result, len(accesses))
	for i, a := range accesses {
		results[i].Name = a.Name
		if a.Miss {
			misses = append(misses, &missState{
				idx:   i,
				start: a.Arrive + cfg.BaseCycles,
				end:   a.Arrive + cfg.BaseCycles + cfg.MissCycles - 1,
			})
		}
	}
	var last uint64
	for _, a := range accesses {
		end := a.Arrive + cfg.BaseCycles + cfg.MissCycles
		if end > last {
			last = end
		}
	}

	for cycle := uint64(1); cycle <= last; cycle++ {
		// Retire misses whose final miss cycle has passed.
		for _, m := range misses {
			if m.entry != nil && cycle > m.end {
				e := m.entry
				m.entry = nil
				logic.OnMissComplete(e, cycle)
				results[m.idx].MLPCost = e.MLPCost
				results[m.idx].PMC = e.PMC
				results[m.idx].PureCycles = e.PureCycles
				results[m.idx].HitOverlapped = e.HitOverlapped
				mshr.Release(e)
			}
		}
		// Start base phases.
		for i, a := range accesses {
			if a.Arrive == cycle {
				logic.OnAccessStart(0, mem.Load, cycle)
				_ = i
			}
		}
		// Allocate MSHR entries at the start of the miss phase.
		for _, m := range misses {
			if m.start == cycle {
				req := &mem.Request{
					Addr: mem.Addr(uint64(m.idx+1) << mem.BlockBits),
					PC:   mem.Addr(0x1000 + uint64(m.idx)),
					Core: 0,
					Kind: mem.Load,
				}
				e, err := mshr.Allocate(req, cycle)
				if err != nil {
					// The hand-worked study case never exceeds the
					// MSHR file; an error here is a broken scenario.
					panic(err)
				}
				m.entry = e
			}
		}
		logic.Tick(cycle, mshr)
	}
	return results, logic.ActivePureMissCycles(0)
}

// RunPaper runs the paper's exact study case.
func RunPaper() ([]Result, uint64) { return Run(PaperConfig, PaperAccesses) }

// Format renders results as the two tables of the paper, for the
// example binary and the harness.
func Format(results []Result, totalPure uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-12s %-12s %-6s %s\n", "Miss", "MLP-cost", "PMC", "Pure", "Hit-overlap")
	sorted := append([]Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, r := range sorted {
		if r.MLPCost == 0 && r.PMC == 0 && r.PureCycles == 0 && !r.HitOverlapped {
			continue // hit
		}
		fmt.Fprintf(&b, "%-6s %-12.4f %-12.4f %-6d %v\n", r.Name, r.MLPCost, r.PMC, r.PureCycles, r.HitOverlapped)
	}
	fmt.Fprintf(&b, "Active pure miss cycles: %d\n", totalPure)
	return b.String()
}
