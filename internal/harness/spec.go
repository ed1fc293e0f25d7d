package harness

import (
	"fmt"
	"sort"
	"strconv"

	"care/internal/core/pmc"
	"care/internal/mem"
	"care/internal/sim"
	"care/internal/stats"
	"care/internal/synth"
	"care/internal/trace"
)

// runFig3 reproduces Figure 3: with plain LRU, what share of LLC
// misses overlap base access cycles from their own core?
func runFig3(o *Options) error {
	profiles, err := o.specProfiles(synth.All())
	if err != nil {
		return err
	}
	res, err := grid(o, len(profiles), 1, func(i, _ int) runKey {
		return o.simKey("spec", profiles[i].Name, "lru", 4, false)
	})
	if err != nil {
		return err
	}
	pct := matrix(res, func(r sim.Result) float64 {
		if m := r.LLC.Misses(); m > 0 {
			return 100 * float64(r.LLC.HitOverlapMisses) / float64(m)
		}
		return 0
	})
	emitMatrix(o, []string{"workload", "misses w/ hit-miss overlap (%)"}, names(profiles), pct, "MEAN")
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
	err = parallel(o.ctx, len(profiles), o.Parallelism, func(i int) error {
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
	err = parallel(o.ctx, len(profiles), o.Parallelism, func(i int) error {
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
	res, err := grid(o, len(profiles), 1, func(i, _ int) runKey {
		return o.simKey("spec", profiles[i].Name, "lru", 1, false)
	})
	if err != nil {
		return err
	}
	t := stats.NewTable("workload", "suite", "LLC MPKI")
	for i, p := range profiles {
		r := res[i][0]
		t.AddRow(p.Name, p.Suite, fmt.Sprintf("%.2f", stats.MPKI(r.LLC.DemandMisses, r.CoreInstructions[0])))
	}
	emitTable(o, t)
	return nil
}

// spec4Key is the 4-core multi-copy run with the paper's prefetchers
// that Figures 7/8, Table X and the ablations compare schemes on.
func (o *Options) spec4Key(workload, scheme string) runKey {
	return o.simKey("spec", workload, scheme, 4, true)
}

// withLRU puts the LRU baseline in front of the compared schemes:
// column 0 of every normalised grid.
func withLRU(schemes []string) []string {
	return append([]string{"lru"}, schemes...)
}

// runFig7 reproduces Figure 7: per-workload normalized IPC and the
// geometric mean, every scheme against the LRU baseline.
func runFig7(o *Options) error {
	profiles, err := o.specProfiles(synth.All())
	if err != nil {
		return err
	}
	cols := withLRU(o.schemes())
	res, err := grid(o, len(profiles), len(cols), func(i, j int) runKey {
		return o.spec4Key(profiles[i].Name, cols[j])
	})
	if err != nil {
		return err
	}
	emitMatrix(o, append([]string{"workload"}, cols[1:]...), names(profiles), overBase(res, ipcOver), "GEOMEAN")
	return nil
}

// spec4Grid runs every workload under every scheme, the Figure 8 /
// Table X matrix (shared, through the memo, with Figure 7).
func spec4Grid(o *Options) ([]synth.Profile, []string, [][]sim.Result, error) {
	profiles, err := o.specProfiles(synth.All())
	if err != nil {
		return nil, nil, nil, err
	}
	schemes := o.schemes()
	res, err := grid(o, len(profiles), len(schemes), func(i, j int) runKey {
		return o.spec4Key(profiles[i].Name, schemes[j])
	})
	return profiles, schemes, res, err
}

func llcPMR(r sim.Result) float64 { return r.LLCPMR }

// runFig8 reproduces Figure 8: LLC pMR per workload and scheme.
func runFig8(o *Options) error {
	profiles, schemes, res, err := spec4Grid(o)
	if err != nil {
		return err
	}
	emitMatrix(o, append([]string{"workload"}, schemes...), names(profiles), matrix(res, llcPMR), "MEAN")
	return nil
}

// runTab10 reproduces Table X: per-scheme average pMR and average PMC
// over the 4-core SPEC runs.
func runTab10(o *Options) error {
	_, schemes, res, err := spec4Grid(o)
	if err != nil {
		return err
	}
	pmr := matrix(res, llcPMR)
	pmc := matrix(res, func(r sim.Result) float64 { return r.MeanPMC })
	t := stats.NewTable(append([]string{"metric"}, schemes...)...)
	pmrRow := []interface{}{"pMR"}
	pmcRow := []interface{}{"PMC"}
	for j := range schemes {
		pmrRow = append(pmrRow, stats.Mean(column(pmr, j)))
		pmcRow = append(pmcRow, fmt.Sprintf("%.2f", stats.Mean(column(pmc, j))))
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
	cols := withLRU(schemes)
	res, err := grid(o, o.Mixes, len(cols), func(m, j int) runKey {
		return o.simKey("mix", strconv.Itoa(m), cols[j], 4, true)
	})
	if err != nil {
		return err
	}
	ws := overBase(res, func(r, base sim.Result) float64 {
		return stats.NormalizedWeightedSpeedup(r.CoreIPC, base.CoreIPC)
	})
	mixes := make([]string, o.Mixes)
	best := map[string]int{}
	for m, row := range ws {
		mixes[m] = fmt.Sprintf("mix%02d", m)
		bestScheme, bestVal := "", 0.0
		for j, v := range row {
			if v > bestVal {
				bestScheme, bestVal = schemes[j], v
			}
		}
		best[bestScheme]++
	}
	emitMatrix(o, append([]string{"mix"}, schemes...), mixes, ws, "GEOMEAN")
	var winners []string
	for s := range best {
		winners = append(winners, s)
	}
	sort.Strings(winners)
	for _, s := range winners {
		fmt.Fprintf(o.Out, "best for %d mixes: %s\n", best[s], s)
	}
	return nil
}

// runScalabilitySpec builds fig11 (with prefetch) / fig13 (without,
// plus Mockingjay): geomean speedup over LRU at each core count.
func runScalabilitySpec(prefetch bool) func(o *Options) error {
	return func(o *Options) error {
		profiles, err := o.specProfiles(scalabilityProfiles())
		if err != nil {
			return err
		}
		return runScalability(o, "spec", names(profiles), prefetch)
	}
}

// runScalability is shared by fig11-fig14: each row is one core count
// (with or without prefetching), each column a scheme's geomean IPC
// speedup over LRU across the workloads of kind. Without prefetching
// the default scheme set adds Mockingjay, as the paper does.
func runScalability(o *Options, kind string, workloads []string, prefetch bool) error {
	schemes := o.schemes()
	if !prefetch && len(o.Schemes) == 0 {
		schemes = append(schemes, noPrefetchScheme)
	}
	cols := withLRU(schemes)
	nw := len(workloads)
	res, err := grid(o, len(o.CoreCounts)*nw, len(cols), func(i, j int) runKey {
		k := o.simKey(kind, workloads[i%nw], cols[j], o.CoreCounts[i/nw], prefetch)
		if kind == "gap" {
			// Only GAP traces depend on the record cap; a spec key
			// carrying it would miss fig7's and tab11's runs.
			k.gapRecs = o.GAPRecords
		}
		return k
	})
	if err != nil {
		return err
	}
	cores := make([]string, len(o.CoreCounts))
	for c, n := range o.CoreCounts {
		cores[c] = strconv.Itoa(n)
	}
	emitMatrix(o, append([]string{"cores"}, schemes...), cores, groupGeoMean(overBase(res, ipcOver), nw), "")
	return nil
}

// runTab11 reproduces Table XI: AOCPA per core count (LRU with
// prefetching), averaged over the scalability subset.
func runTab11(o *Options) error {
	profiles, err := o.specProfiles(scalabilityProfiles())
	if err != nil {
		return err
	}
	res, err := grid(o, len(o.CoreCounts), len(profiles), func(c, i int) runKey {
		return o.simKey("spec", profiles[i].Name, "lru", o.CoreCounts[c], true)
	})
	if err != nil {
		return err
	}
	aocpa := matrix(res, func(r sim.Result) float64 { return stats.Mean(r.AOCPA) })
	t := stats.NewTable("cores", "AOCPA (SPEC mean)")
	for c, n := range o.CoreCounts {
		t.AddRow(strconv.Itoa(n), fmt.Sprintf("%.2f", stats.Mean(aocpa[c])))
	}
	emitTable(o, t)
	return nil
}

// scalabilityProfiles resolves ScalabilitySubset.
func scalabilityProfiles() []synth.Profile {
	var out []synth.Profile
	for _, n := range ScalabilitySubset() {
		p, err := synth.Lookup(n)
		if err != nil {
			panic("harness: scalability subset: " + err.Error())
		}
		out = append(out, p)
	}
	return out
}

// names lists the profiles' workload names.
func names(ps []synth.Profile) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
