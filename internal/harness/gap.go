package harness

func init() {
	register(Experiment{ID: "fig9", Title: "Normalized IPC, 4-core multi-copy GAP with prefetching", Run: runFig9})
	register(Experiment{ID: "fig12", Title: "GAP speedup at 4/8/16 cores with prefetching", Run: runScalabilityGAP(true)})
	register(Experiment{ID: "fig14", Title: "GAP speedup at 4/8/16 cores without prefetching (incl. Mockingjay)", Run: runScalabilityGAP(false)})
}

// runFig9 reproduces Figure 9: normalized IPC for the 15 GAP
// kernel-dataset workloads (4-core multi-copy, prefetching on).
func runFig9(o *Options) error {
	workloads := gapWorkloads()
	cols := withLRU(o.schemes())
	res, err := grid(o, len(workloads), len(cols), func(i, j int) runKey {
		k := o.simKey("gap", workloads[i], cols[j], 4, true)
		k.gapRecs = o.GAPRecords
		return k
	})
	if err != nil {
		return err
	}
	emitMatrix(o, append([]string{"workload"}, cols[1:]...), workloads, overBase(res, ipcOver), "GEOMEAN")
	return nil
}

// runScalabilityGAP builds fig12 (prefetch) / fig14 (no prefetch,
// plus Mockingjay). Scalability sweeps 3 core counts x 7 schemes, so
// it defaults to a representative 6-workload subset (two per dataset);
// the full 15 run via fig9.
func runScalabilityGAP(prefetch bool) func(o *Options) error {
	return func(o *Options) error {
		return runScalability(o, "gap", []string{"bfs-or", "pr-or", "cc-tw", "sssp-tw", "bfs-ur", "pr-ur"}, prefetch)
	}
}
