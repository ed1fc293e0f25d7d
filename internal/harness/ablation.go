package harness

import (
	"strconv"

	careplc "care/internal/core/care"
	"care/internal/sim"
)

func init() {
	register(Experiment{ID: "abl-dtrm", Title: "Ablation: CARE with and without DTRM, and with static threshold variants", Run: runAblDTRM})
	register(Experiment{ID: "abl-sample", Title: "Ablation: CARE SHT training with 16/64/256 sampled sets", Run: runAblSample})
	register(Experiment{ID: "abl-mshr", Title: "Ablation: CARE sensitivity to LLC MSHR size (concurrency headroom)", Run: runAblMSHR})
	register(Experiment{ID: "abl-prefetch", Title: "Ablation: CARE-vs-LRU gap under different L2 prefetchers", Run: runAblPrefetch})
}

// ablWorkloads resolves the ablations' workloads: the option override
// or the default subset.
func (o *Options) ablWorkloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return []string{"429.mcf", "450.soplex", "482.sphinx3", "483.xalancbmk", "462.libquantum", "403.gcc"}
}

// runCAREVariants prints each workload's CARE IPC under every variant
// of cfgs[1:], normalised to cfgs[0] (the grid's baseline column,
// which repeats the variant the table normalises to).
func runCAREVariants(o *Options, header []string, cfgs []careplc.Config) error {
	workloads := o.ablWorkloads()
	res, err := grid(o, len(workloads), len(cfgs), func(i, j int) runKey {
		k := o.spec4Key(workloads[i], "care")
		k.care = cfgs[j]
		return k
	})
	if err != nil {
		return err
	}
	emitMatrix(o, header, workloads, overBase(res, ipcOver), "GEOMEAN")
	return nil
}

// runAblDTRM compares DTRM against frozen thresholds: the paper's
// initial values, a loose pair, and a tight pair.
func runAblDTRM(o *Options) error {
	return runCAREVariants(o,
		[]string{"workload", "dtrm (paper)", "static 50/350", "static 20/140", "static 100/700"},
		[]careplc.Config{{}, {},
			{DisableDTRM: true},
			{DisableDTRM: true, PMCLow: 20, PMCHigh: 140},
			{DisableDTRM: true, PMCLow: 100, PMCHigh: 700}})
}

// runAblSample sweeps the number of SHT-training sampled sets,
// normalised to the paper's 64.
func runAblSample(o *Options) error {
	return runCAREVariants(o,
		[]string{"workload", "16 sets", "64 sets (paper)", "256 sets"},
		[]careplc.Config{{SampledSets: 64}, {SampledSets: 16}, {SampledSets: 64}, {SampledSets: 256}})
}

// careVsLRU runs CARE (column 1) and its LRU baseline (column 0) on
// every ablation workload under each of n variants of the machine;
// row v*nw+w is variant v, as vary sets it on the run key, on
// workload w of nw.
func careVsLRU(o *Options, n int, vary func(k *runKey, v int)) (res [][]sim.Result, nw int, err error) {
	workloads := o.ablWorkloads()
	nw = len(workloads)
	res, err = grid(o, n*nw, 2, func(i, j int) runKey {
		k := o.spec4Key(workloads[i%nw], []string{"lru", "care"}[j])
		vary(&k, i/nw)
		return k
	})
	return res, nw, err
}

// runAblMSHR sweeps the LLC MSHR size: PMC exists because of miss
// concurrency, so shrinking the MSHR file should compress the CARE
// advantage while growing it should not hurt.
func runAblMSHR(o *Options) error {
	sizes := []int{16, 32, 64, 128}
	res, nw, err := careVsLRU(o, len(sizes), func(k *runKey, v int) { k.llcMSHR = sizes[v] })
	if err != nil {
		return err
	}
	rows := make([]string, len(sizes))
	for v, n := range sizes {
		rows[v] = strconv.Itoa(n)
	}
	emitMatrix(o, []string{"MSHR entries", "CARE speedup over LRU (geomean)"}, rows,
		groupGeoMean(overBase(res, ipcOver), nw), "")
	return nil
}

// runAblPrefetch sweeps the L2 prefetcher (the paper fixes IP-stride;
// the ablation probes how prefetcher aggressiveness interacts with
// concurrency-aware replacement).
func runAblPrefetch(o *Options) error {
	prefetchers := []string{"none", "next-line", "ip-stride", "stream"}
	res, nw, err := careVsLRU(o, len(prefetchers), func(k *runKey, v int) { k.l2Prefetch = prefetchers[v] })
	if err != nil {
		return err
	}
	vals := make([][]float64, len(res))
	for i, row := range res {
		vals[i] = []float64{ipcOver(row[1], row[0]), row[1].IPCSum()}
	}
	gm := groupGeoMean(vals, nw)
	ipStride := gm[2][1]
	for _, row := range gm {
		row[1] /= ipStride
	}
	emitMatrix(o, []string{"L2 prefetcher", "CARE speedup over LRU (geomean)", "CARE IPC (geomean, normalized to ip-stride)"},
		prefetchers, gm, "")
	return nil
}
