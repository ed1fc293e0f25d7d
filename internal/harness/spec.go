package harness

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"care/internal/core/pmc"
	"care/internal/mem"
	"care/internal/sim"
	"care/internal/stats"
	"care/internal/synth"
	"care/internal/trace"
)

func init() {
	register(Experiment{ID: "fig3", Title: "Percentage of LLC misses with hit-miss overlapping (4-core multi-copy, LRU)", Run: runFig3})
	register(Experiment{ID: "fig5", Title: "Distribution of PMC (single core, LRU, 16 workloads)", Run: runFig5})
	register(Experiment{ID: "tab3", Title: "Distribution and median of per-PC PMC deltas", Run: runTab3})
	register(Experiment{ID: "tab8", Title: "Single-core LLC MPKI of the evaluated SPEC workloads", Run: runTab8})
	register(Experiment{ID: "fig7", Title: "Normalized IPC, 4-core multi-copy SPEC with prefetching", Run: runFig7})
	register(Experiment{ID: "fig8", Title: "LLC pure miss rate (pMR), 4-core multi-copy SPEC with prefetching", Run: runFig8})
	register(Experiment{ID: "tab10", Title: "Average pMR and PMC per scheme (4-core SPEC with prefetching)", Run: runTab10})
	register(Experiment{ID: "fig10", Title: "Weighted speedup over 4-core mixed workloads with prefetching", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "SPEC speedup at 4/8/16 cores with prefetching", Run: runScalabilitySpec(true, "fig11")})
	register(Experiment{ID: "fig13", Title: "SPEC speedup at 4/8/16 cores without prefetching (incl. Mockingjay)", Run: runScalabilitySpec(false, "fig13")})
	register(Experiment{ID: "tab11", Title: "Average Overlapping Cycles Per Access (AOCPA) vs core count", Run: runTab11})
}

// runFig3 reproduces Figure 3: with plain LRU, what share of LLC
// misses overlap base access cycles from their own core?
func runFig3(o *Options) error {
	profiles, err := o.specProfiles(synth.All())
	if err != nil {
		return err
	}
	type row struct {
		name string
		pct  float64
	}
	rows := make([]row, len(profiles))
	err = parallel(len(profiles), o.Parallelism, func(i int) error {
		r, err := runSim(runKey{
			kind: "spec", workload: profiles[i].Name, scheme: "lru",
			cores: 4, prefetch: false, scale: o.Scale,
			warmup: o.Warmup, measure: o.Measure,
		}, o)
		if err != nil {
			return err
		}
		pct := 0.0
		if m := r.LLC.Misses(); m > 0 {
			pct = 100 * float64(r.LLC.HitOverlapMisses) / float64(m)
		}
		rows[i] = row{name: profiles[i].Name, pct: pct}
		return nil
	})
	if err != nil {
		return err
	}
	t := stats.NewTable("workload", "misses w/ hit-miss overlap (%)")
	sum := 0.0
	for _, r := range rows {
		t.AddRow(r.name, r.pct)
		sum += r.pct
	}
	t.AddRow("MEAN", sum/float64(len(rows)))
	emitTable(o, t)
	return nil
}

// pmcSamples runs one single-core workload under LRU and returns the
// completed-miss PMC samples.
func pmcSamples(p synth.Profile, o *Options) ([]pmc.Sample, error) {
	cfg := sim.ScaledConfig(1, o.Scale)
	cfg.LLCPolicy = "lru"
	o.applyGuards(&cfg)
	s, err := sim.New(cfg, []trace.Reader{synth.NewScaledGenerator(p, 1, o.Scale)})
	if err != nil {
		return nil, err
	}
	var samples []pmc.Sample
	if _, err := s.RunInstructions(o.Warmup); err != nil {
		return nil, err
	}
	s.ResetStats()
	s.PML().OnSample = func(sm pmc.Sample) { samples = append(samples, sm) }
	if _, err := s.RunInstructions(o.Measure); err != nil {
		return nil, err
	}
	return samples, nil
}

// runFig5 reproduces Figure 5: the PMC histogram (eight 50-cycle
// bins, the last open-ended) per workload.
func runFig5(o *Options) error {
	profiles, err := o.specProfiles(synth.Selection16())
	if err != nil {
		return err
	}
	hists := make([]*stats.Histogram, len(profiles))
	err = parallel(len(profiles), o.Parallelism, func(i int) error {
		samples, err := pmcSamples(profiles[i], o)
		if err != nil {
			return err
		}
		h := stats.NewHistogram(8, 50)
		for _, sm := range samples {
			h.Add(sm.PMC)
		}
		hists[i] = h
		return nil
	})
	if err != nil {
		return err
	}
	t := stats.NewTable("workload", "0-49", "50-99", "100-149", "150-199", "200-249", "250-299", "300-349", "350+")
	for i, p := range profiles {
		fr := hists[i].Fractions()
		cells := make([]interface{}, 0, 9)
		cells = append(cells, p.Name)
		for _, f := range fr {
			cells = append(cells, fmt.Sprintf("%.1f%%", 100*f))
		}
		t.AddRow(cells...)
	}
	emitTable(o, t)
	return nil
}

// runTab3 reproduces Table III: the distribution and median of the
// absolute PMC difference between consecutive misses of the same PC
// — the predictability that justifies per-PC PMC learning.
func runTab3(o *Options) error {
	profiles, err := o.specProfiles(synth.Selection16())
	if err != nil {
		return err
	}
	type row struct {
		bins   [4]float64 // [0,50) [50,100) [100,150) >=150
		median float64
	}
	rows := make([]row, len(profiles))
	err = parallel(len(profiles), o.Parallelism, func(i int) error {
		samples, err := pmcSamples(profiles[i], o)
		if err != nil {
			return err
		}
		last := map[mem.Addr]float64{}
		var deltas []float64
		for _, sm := range samples {
			if prev, ok := last[sm.PC]; ok {
				d := sm.PMC - prev
				if d < 0 {
					d = -d
				}
				deltas = append(deltas, d)
			}
			last[sm.PC] = sm.PMC
		}
		if len(deltas) == 0 {
			return fmt.Errorf("tab3: no per-PC deltas for %s", profiles[i].Name)
		}
		var r row
		for _, d := range deltas {
			switch {
			case d < 50:
				r.bins[0]++
			case d < 100:
				r.bins[1]++
			case d < 150:
				r.bins[2]++
			default:
				r.bins[3]++
			}
		}
		for b := range r.bins {
			r.bins[b] = 100 * r.bins[b] / float64(len(deltas))
		}
		r.median = stats.Median(deltas)
		rows[i] = r
		return nil
	})
	if err != nil {
		return err
	}
	t := stats.NewTable("workload", "[0,50)", "[50,100)", "[100,150)", ">=150", "median")
	for i, p := range profiles {
		r := rows[i]
		t.AddRow(p.Name,
			fmt.Sprintf("%.2f%%", r.bins[0]), fmt.Sprintf("%.2f%%", r.bins[1]),
			fmt.Sprintf("%.2f%%", r.bins[2]), fmt.Sprintf("%.2f%%", r.bins[3]),
			fmt.Sprintf("%.2f", r.median))
	}
	emitTable(o, t)
	return nil
}

// runTab8 reproduces Table VIII: single-core LLC MPKI per workload
// (LRU, no prefetching), the memory-intensity inventory.
func runTab8(o *Options) error {
	profiles, err := o.specProfiles(synth.All())
	if err != nil {
		return err
	}
	mpki := make([]float64, len(profiles))
	err = parallel(len(profiles), o.Parallelism, func(i int) error {
		r, err := runSim(runKey{
			kind: "spec", workload: profiles[i].Name, scheme: "lru",
			cores: 1, prefetch: false, scale: o.Scale,
			warmup: o.Warmup, measure: o.Measure,
		}, o)
		if err != nil {
			return err
		}
		mpki[i] = stats.MPKI(r.LLC.DemandMisses, r.CoreInstructions[0])
		return nil
	})
	if err != nil {
		return err
	}
	t := stats.NewTable("workload", "suite", "LLC MPKI")
	for i, p := range profiles {
		t.AddRow(p.Name, p.Suite, fmt.Sprintf("%.2f", mpki[i]))
	}
	emitTable(o, t)
	return nil
}

// spec4coreResults runs the Figure 7/8 / Table X matrix: every
// workload under every scheme, 4-core multi-copy with prefetching.
func spec4coreResults(o *Options, profiles []synth.Profile, schemes []string) (map[string]map[string]sim.Result, error) {
	results := make(map[string]map[string]sim.Result, len(profiles))
	for _, p := range profiles {
		results[p.Name] = make(map[string]sim.Result, len(schemes))
	}
	type job struct{ wl, scheme string }
	var jobs []job
	for _, p := range profiles {
		for _, s := range schemes {
			jobs = append(jobs, job{p.Name, s})
		}
	}
	var mu syncMap
	err := parallel(len(jobs), o.Parallelism, func(i int) error {
		j := jobs[i]
		r, err := runSim(runKey{
			kind: "spec", workload: j.wl, scheme: j.scheme,
			cores: 4, prefetch: true, scale: o.Scale,
			warmup: o.Warmup, measure: o.Measure,
		}, o)
		if err != nil {
			return err
		}
		mu.Lock()
		results[j.wl][j.scheme] = r
		mu.Unlock()
		return nil
	})
	return results, err
}

// runFig7 reproduces Figure 7: per-workload normalized IPC and the
// geometric mean, every scheme against the LRU baseline.
func runFig7(o *Options) error {
	profiles, err := o.specProfiles(synth.All())
	if err != nil {
		return err
	}
	schemes := o.schemes()
	results, err := spec4coreResults(o, profiles, schemes)
	if err != nil {
		return err
	}
	header := append([]string{"workload"}, schemes...)
	t := stats.NewTable(header...)
	norm := map[string][]float64{}
	for _, p := range profiles {
		base := results[p.Name]["lru"].IPCSum()
		cells := []interface{}{p.Name}
		for _, s := range schemes {
			v := results[p.Name][s].IPCSum() / base
			cells = append(cells, fmt.Sprintf("%.4f", v))
			norm[s] = append(norm[s], v)
		}
		t.AddRow(cells...)
	}
	gm := []interface{}{"GEOMEAN"}
	for _, s := range schemes {
		gm = append(gm, fmt.Sprintf("%.4f", stats.GeoMean(norm[s])))
	}
	t.AddRow(gm...)
	emitTable(o, t)
	return nil
}

// runFig8 reproduces Figure 8: LLC pMR per workload and scheme.
func runFig8(o *Options) error {
	profiles, err := o.specProfiles(synth.All())
	if err != nil {
		return err
	}
	schemes := o.schemes()
	results, err := spec4coreResults(o, profiles, schemes)
	if err != nil {
		return err
	}
	header := append([]string{"workload"}, schemes...)
	t := stats.NewTable(header...)
	sums := map[string]float64{}
	for _, p := range profiles {
		cells := []interface{}{p.Name}
		for _, s := range schemes {
			v := results[p.Name][s].LLCPMR
			cells = append(cells, fmt.Sprintf("%.4f", v))
			sums[s] += v
		}
		t.AddRow(cells...)
	}
	mean := []interface{}{"MEAN"}
	for _, s := range schemes {
		mean = append(mean, fmt.Sprintf("%.4f", sums[s]/float64(len(profiles))))
	}
	t.AddRow(mean...)
	emitTable(o, t)
	return nil
}

// runTab10 reproduces Table X: per-scheme average pMR and average PMC
// over the 4-core SPEC runs.
func runTab10(o *Options) error {
	profiles, err := o.specProfiles(synth.All())
	if err != nil {
		return err
	}
	schemes := o.schemes()
	results, err := spec4coreResults(o, profiles, schemes)
	if err != nil {
		return err
	}
	header := append([]string{"metric"}, schemes...)
	t := stats.NewTable(header...)
	pmrRow := []interface{}{"pMR"}
	pmcRow := []interface{}{"PMC"}
	for _, s := range schemes {
		var pmr, meanPMC float64
		for _, p := range profiles {
			pmr += results[p.Name][s].LLCPMR
			meanPMC += results[p.Name][s].MeanPMC
		}
		n := float64(len(profiles))
		pmrRow = append(pmrRow, fmt.Sprintf("%.4f", pmr/n))
		pmcRow = append(pmcRow, fmt.Sprintf("%.2f", meanPMC/n))
	}
	t.AddRow(pmrRow...)
	t.AddRow(pmcRow...)
	emitTable(o, t)
	return nil
}

// runFig10 reproduces Figure 10: normalized weighted speedup over
// random 4-core mixed workloads.
func runFig10(o *Options) error {
	schemes := o.schemes()
	type mixResult struct {
		ws map[string]float64
	}
	mixes := make([]mixResult, o.Mixes)
	err := parallel(o.Mixes, o.Parallelism, func(m int) error {
		run := func(scheme string) (sim.Result, error) {
			return runSim(runKey{
				kind: "mix", workload: strconv.Itoa(m), scheme: scheme,
				cores: 4, prefetch: true, scale: o.Scale,
				warmup: o.Warmup, measure: o.Measure,
			}, o)
		}
		base, err := run("lru")
		if err != nil {
			return err
		}
		mixes[m].ws = map[string]float64{}
		for _, s := range schemes {
			if s == "lru" {
				mixes[m].ws[s] = 1
				continue
			}
			r, err := run(s)
			if err != nil {
				return err
			}
			mixes[m].ws[s] = stats.NormalizedWeightedSpeedup(r.CoreIPC, base.CoreIPC)
		}
		return nil
	})
	if err != nil {
		return err
	}
	header := append([]string{"mix"}, schemes...)
	t := stats.NewTable(header...)
	per := map[string][]float64{}
	best := map[string]int{}
	for m := range mixes {
		cells := []interface{}{fmt.Sprintf("mix%02d", m)}
		bestScheme, bestVal := "", 0.0
		for _, s := range schemes {
			v := mixes[m].ws[s]
			per[s] = append(per[s], v)
			cells = append(cells, fmt.Sprintf("%.4f", v))
			if v > bestVal {
				bestScheme, bestVal = s, v
			}
		}
		best[bestScheme]++
		t.AddRow(cells...)
	}
	gm := []interface{}{"GEOMEAN"}
	for _, s := range schemes {
		gm = append(gm, fmt.Sprintf("%.4f", stats.GeoMean(per[s])))
	}
	t.AddRow(gm...)
	emitTable(o, t)
	var names []string
	for s := range best {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		fmt.Fprintf(o.Out, "best for %d mixes: %s\n", best[s], s)
	}
	return nil
}

// runScalabilitySpec builds fig11 (with prefetch) / fig13 (without,
// plus Mockingjay): geomean speedup over LRU at each core count.
func runScalabilitySpec(prefetch bool, id string) func(o *Options) error {
	return func(o *Options) error {
		subset, err := subsetProfiles(ScalabilitySubset())
		if err != nil {
			return err
		}
		profiles, err := o.specProfiles(subset)
		if err != nil {
			return err
		}
		schemes := o.schemes()
		if !prefetch && len(o.Schemes) == 0 {
			schemes = append(append([]string{}, schemes...), "mockingjay")
		}
		return runScalability(o, profiles2names(profiles, "spec"), schemes, prefetch)
	}
}

// runScalability is shared by fig11-fig14.
func runScalability(o *Options, workloads []scaleWorkload, schemes []string, prefetch bool) error {
	results := map[int]map[string][]float64{} // cores -> scheme -> per-workload speedup
	for _, c := range o.CoreCounts {
		results[c] = map[string][]float64{}
	}
	type job struct {
		cores int
		wl    scaleWorkload
	}
	var jobs []job
	for _, c := range o.CoreCounts {
		for _, wl := range workloads {
			jobs = append(jobs, job{c, wl})
		}
	}
	var mu syncMap
	err := parallel(len(jobs), o.Parallelism, func(i int) error {
		j := jobs[i]
		per := map[string]float64{}
		base := 0.0
		for _, s := range append([]string{"lru"}, schemes...) {
			if s == "lru" && base != 0 {
				continue
			}
			r, err := runSim(runKey{
				kind: j.wl.kind, workload: j.wl.name, scheme: s,
				cores: j.cores, prefetch: prefetch, scale: o.Scale,
				warmup: o.Warmup, measure: o.Measure, gapRecs: o.GAPRecords,
			}, o)
			if err != nil {
				return err
			}
			if s == "lru" {
				base = r.IPCSum()
				per["lru"] = 1
				continue
			}
			per[s] = r.IPCSum() / base
		}
		mu.Lock()
		for s, v := range per {
			results[j.cores][s] = append(results[j.cores][s], v)
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	header := append([]string{"cores"}, schemes...)
	t := stats.NewTable(header...)
	for _, c := range o.CoreCounts {
		cells := []interface{}{fmt.Sprintf("%d", c)}
		for _, s := range schemes {
			cells = append(cells, fmt.Sprintf("%.4f", stats.GeoMean(results[c][s])))
		}
		t.AddRow(cells...)
	}
	emitTable(o, t)
	return nil
}

// runTab11 reproduces Table XI: AOCPA per core count (LRU with
// prefetching), averaged over the scalability subset.
func runTab11(o *Options) error {
	subset, err := subsetProfiles(ScalabilitySubset())
	if err != nil {
		return err
	}
	profiles, err := o.specProfiles(subset)
	if err != nil {
		return err
	}
	t := stats.NewTable("cores", "AOCPA (SPEC mean)")
	for _, c := range o.CoreCounts {
		vals := make([]float64, len(profiles))
		err := parallel(len(profiles), o.Parallelism, func(i int) error {
			r, err := runSim(runKey{
				kind: "spec", workload: profiles[i].Name, scheme: "lru",
				cores: c, prefetch: true, scale: o.Scale,
				warmup: o.Warmup, measure: o.Measure,
			}, o)
			if err != nil {
				return err
			}
			vals[i] = stats.Mean(r.AOCPA)
			return nil
		})
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%.2f", stats.Mean(vals)))
	}
	emitTable(o, t)
	return nil
}

// ---- small shared helpers ----

type scaleWorkload struct{ kind, name string }

func profiles2names(ps []synth.Profile, kind string) []scaleWorkload {
	out := make([]scaleWorkload, len(ps))
	for i, p := range ps {
		out[i] = scaleWorkload{kind: kind, name: p.Name}
	}
	return out
}

func subsetProfiles(names []string) ([]synth.Profile, error) {
	var out []synth.Profile
	for _, n := range names {
		p, err := synth.Lookup(n)
		if err != nil {
			return nil, fmt.Errorf("harness: workload subset: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// syncMap guards the shared result maps built by parallel jobs.
type syncMap = sync.Mutex
