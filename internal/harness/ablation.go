package harness

import (
	"fmt"

	careplc "care/internal/core/care"
	"care/internal/sim"
	"care/internal/stats"
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

// ablKey is the 4-core multi-copy run of workload under scheme, with
// the paper's prefetchers, that the ablations vary.
func ablKey(o *Options, workload, scheme string) runKey {
	return runKey{
		kind: "spec", workload: workload, scheme: scheme,
		cores: 4, prefetch: true, scale: o.Scale,
		warmup: o.Warmup, measure: o.Measure,
	}
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
		care careplc.Config
	}{
		{"dtrm (paper)", careplc.Config{}},
		{"static 50/350", careplc.Config{DisableDTRM: true}},
		{"static 20/140", careplc.Config{DisableDTRM: true, PMCLow: 20, PMCHigh: 140}},
		{"static 100/700", careplc.Config{DisableDTRM: true, PMCLow: 100, PMCHigh: 700}},
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
		k := ablKey(o, workloads[j.wl], "care")
		k.care = variants[j.vi].care
		r, err := runSim(k, o)
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
		k := ablKey(o, workloads[j.wl], "care")
		k.care = careplc.Config{SampledSets: sampleCounts[j.si]}
		r, err := runSim(k, o)
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
			run := func(scheme string) (sim.Result, error) {
				k := ablKey(o, workloads[wi], scheme)
				k.llcMSHR = n
				return runSim(k, o)
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
			run := func(scheme string) (sim.Result, error) {
				k := ablKey(o, workloads[wi], scheme)
				k.l2Prefetch = pf
				return runSim(k, o)
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
