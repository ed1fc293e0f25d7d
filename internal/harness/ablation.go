package harness

import (
	"fmt"

	careplc "care/internal/core/care"
	"care/internal/policy"
	"care/internal/sim"
	"care/internal/stats"
	"care/internal/synth"
)

func init() {
	register(Experiment{ID: "abl-dtrm", Title: "Ablation: CARE with and without DTRM, and with static threshold variants", Run: runAblDTRM})
	register(Experiment{ID: "abl-sample", Title: "Ablation: CARE SHT training with 16/64/256 sampled sets", Run: runAblSample})
	register(Experiment{ID: "abl-mshr", Title: "Ablation: CARE sensitivity to LLC MSHR size (concurrency headroom)", Run: runAblMSHR})
}

// ablWorkloads is the default subset for ablations.
func ablWorkloads() []string {
	return []string{"429.mcf", "450.soplex", "482.sphinx3", "483.xalancbmk", "462.libquantum", "403.gcc"}
}

// runCAREVariant runs a 4-core multi-copy workload with a CARE config
// variant (bypassing the memo cache, which does not key on CARE
// internals).
func runCAREVariant(o *Options, workload string, cfgMod func(*sim.Config)) (sim.Result, error) {
	p, err := synth.Lookup(workload)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := sim.ScaledConfig(4, o.Scale)
	cfg.LLCPolicy = "care"
	cfg.Prefetch = true
	o.applyGuards(&cfg)
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	return runPlain(cfg, specTraces(p, 4, o.Scale), o.Warmup, o.Measure)
}

// runAblDTRM compares DTRM against frozen thresholds: the paper's
// initial values, a loose pair, and a tight pair.
func runAblDTRM(o *Options) error {
	workloads := o.Workloads
	if len(workloads) == 0 {
		workloads = ablWorkloads()
	}
	variants := []struct {
		name string
		mod  func(*sim.Config)
	}{
		{"dtrm (paper)", nil},
		{"static 50/350", func(c *sim.Config) { c.CARE = careplc.Config{DisableDTRM: true} }},
		{"static 20/140", func(c *sim.Config) { c.CARE = careplc.Config{DisableDTRM: true, PMCLow: 20, PMCHigh: 140} }},
		{"static 100/700", func(c *sim.Config) { c.CARE = careplc.Config{DisableDTRM: true, PMCLow: 100, PMCHigh: 700} }},
	}
	header := []string{"workload"}
	for _, v := range variants {
		header = append(header, v.name)
	}
	t := stats.NewTable(header...)
	per := make([][]float64, len(variants))
	type job struct{ wl, vi int }
	var jobs []job
	for wi := range workloads {
		for vi := range variants {
			jobs = append(jobs, job{wi, vi})
		}
	}
	cells := make([][]float64, len(workloads))
	for i := range cells {
		cells[i] = make([]float64, len(variants))
	}
	err := parallel(len(jobs), o.Parallelism, func(i int) error {
		j := jobs[i]
		r, err := runCAREVariant(o, workloads[j.wl], variants[j.vi].mod)
		if err != nil {
			return err
		}
		cells[j.wl][j.vi] = r.IPCSum()
		return nil
	})
	if err != nil {
		return err
	}
	for wi, wl := range workloads {
		row := []interface{}{wl}
		for vi := range variants {
			// Normalise to the DTRM variant.
			v := cells[wi][vi] / cells[wi][0]
			per[vi] = append(per[vi], v)
			row = append(row, fmt.Sprintf("%.4f", v))
		}
		t.AddRow(row...)
	}
	gm := []interface{}{"GEOMEAN"}
	for vi := range variants {
		gm = append(gm, fmt.Sprintf("%.4f", stats.GeoMean(per[vi])))
	}
	t.AddRow(gm...)
	emitTable(o, t)
	return nil
}

// runAblSample sweeps the number of SHT-training sampled sets.
func runAblSample(o *Options) error {
	workloads := o.Workloads
	if len(workloads) == 0 {
		workloads = ablWorkloads()
	}
	sampleCounts := []int{16, 64, 256}
	t := stats.NewTable("workload", "16 sets", "64 sets (paper)", "256 sets")
	cells := make([][]float64, len(workloads))
	for i := range cells {
		cells[i] = make([]float64, len(sampleCounts))
	}
	type job struct{ wl, si int }
	var jobs []job
	for wi := range workloads {
		for si := range sampleCounts {
			jobs = append(jobs, job{wi, si})
		}
	}
	err := parallel(len(jobs), o.Parallelism, func(i int) error {
		j := jobs[i]
		n := sampleCounts[j.si]
		r, err := runCAREVariant(o, workloads[j.wl], func(c *sim.Config) {
			c.CARE = careplc.Config{SampledSets: n}
		})
		if err != nil {
			return err
		}
		cells[j.wl][j.si] = r.IPCSum()
		return nil
	})
	if err != nil {
		return err
	}
	per := make([][]float64, len(sampleCounts))
	for wi, wl := range workloads {
		row := []interface{}{wl}
		for si := range sampleCounts {
			v := cells[wi][si] / cells[wi][1] // normalise to 64 sets
			per[si] = append(per[si], v)
			row = append(row, fmt.Sprintf("%.4f", v))
		}
		t.AddRow(row...)
	}
	gm := []interface{}{"GEOMEAN"}
	for si := range sampleCounts {
		gm = append(gm, fmt.Sprintf("%.4f", stats.GeoMean(per[si])))
	}
	t.AddRow(gm...)
	emitTable(o, t)
	return nil
}

// runAblMSHR sweeps the LLC MSHR size: PMC exists because of miss
// concurrency, so shrinking the MSHR file should compress the CARE
// advantage while growing it should not hurt.
func runAblMSHR(o *Options) error {
	workloads := o.Workloads
	if len(workloads) == 0 {
		workloads = ablWorkloads()
	}
	sizes := []int{16, 32, 64, 128}
	t := stats.NewTable("MSHR entries", "CARE speedup over LRU (geomean)")
	for _, n := range sizes {
		ratios := make([]float64, len(workloads))
		err := parallel(len(workloads), o.Parallelism, func(wi int) error {
			p, err := synth.Lookup(workloads[wi])
			if err != nil {
				return err
			}
			run := func(pol policy.Policy) (sim.Result, error) {
				cfg := sim.ScaledConfig(4, o.Scale)
				cfg.LLCPolicy = pol
				cfg.Prefetch = true
				cfg.LLC.MSHREntries = n
				o.applyGuards(&cfg)
				return runPlain(cfg, specTraces(p, 4, o.Scale), o.Warmup, o.Measure)
			}
			base, err := run("lru")
			if err != nil {
				return err
			}
			r, err := run("care")
			if err != nil {
				return err
			}
			ratios[wi] = r.IPCSum() / base.IPCSum()
			return nil
		})
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.4f", stats.GeoMean(ratios)))
	}
	emitTable(o, t)
	return nil
}

func init() {
	register(Experiment{ID: "abl-prefetch", Title: "Ablation: CARE-vs-LRU gap under different L2 prefetchers", Run: runAblPrefetch})
}

// runAblPrefetch sweeps the L2 prefetcher (the paper fixes IP-stride;
// the ablation probes how prefetcher aggressiveness interacts with
// concurrency-aware replacement).
func runAblPrefetch(o *Options) error {
	workloads := o.Workloads
	if len(workloads) == 0 {
		workloads = ablWorkloads()
	}
	prefetchers := []string{"none", "next-line", "ip-stride", "stream"}
	t := stats.NewTable("L2 prefetcher", "CARE speedup over LRU (geomean)", "CARE IPC (geomean, normalized to ip-stride)")
	careIPC := map[string][]float64{}
	ratios := map[string][]float64{}
	for _, pf := range prefetchers {
		pf := pf
		rs := make([]float64, len(workloads))
		ipcs := make([]float64, len(workloads))
		err := parallel(len(workloads), o.Parallelism, func(wi int) error {
			p, err := synth.Lookup(workloads[wi])
			if err != nil {
				return err
			}
			run := func(pol policy.Policy) (sim.Result, error) {
				cfg := sim.ScaledConfig(4, o.Scale)
				cfg.LLCPolicy = pol
				cfg.Prefetch = true
				cfg.L2Prefetcher = pf
				o.applyGuards(&cfg)
				return runPlain(cfg, specTraces(p, 4, o.Scale), o.Warmup, o.Measure)
			}
			base, err := run("lru")
			if err != nil {
				return err
			}
			r, err := run("care")
			if err != nil {
				return err
			}
			rs[wi] = r.IPCSum() / base.IPCSum()
			ipcs[wi] = r.IPCSum()
			return nil
		})
		if err != nil {
			return err
		}
		ratios[pf] = rs
		careIPC[pf] = ipcs
	}
	baseIPC := stats.GeoMean(careIPC["ip-stride"])
	for _, pf := range prefetchers {
		t.AddRow(pf,
			fmt.Sprintf("%.4f", stats.GeoMean(ratios[pf])),
			fmt.Sprintf("%.4f", stats.GeoMean(careIPC[pf])/baseIPC))
	}
	emitTable(o, t)
	return nil
}
