// policy-compare runs a mixed 4-core workload (four different SPEC
// programs sharing the LLC, the paper's "mixed workload" methodology)
// under every LLC policy — CARE, M-CARE, the baselines the paper
// compares against, and SRRIP — and reports normalized weighted speedup over LRU: a miniature of
// Figure 10.
//
//	go run ./examples/policy-compare
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"care"
)

func main() {
	const scale = 16
	// A deliberately mixed bag: pointer chasing, streaming, a
	// cache-friendly codec, and a scanning solver.
	mix := []string{"429.mcf", "462.libquantum", "625.x264_s", "450.soplex"}

	run := func(policy care.Policy) care.Result {
		traces := make([]care.TraceReader, len(mix))
		for i, name := range mix {
			traces[i] = care.MustSPECTrace(name, uint64(i+1), scale)
		}
		cfg := care.ScaledConfig(len(mix), scale)
		cfg.LLCPolicy = policy
		cfg.Prefetch = true
		r, err := care.Run(context.Background(), cfg, traces,
			care.RunOpts{Warmup: 30_000, Measure: 80_000})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	fmt.Printf("mix: %v\n\n", mix)
	base := run(care.PolicyLRU)

	type row struct {
		policy care.Policy
		ws     float64
	}
	var rows []row
	for _, policy := range care.AllPolicies() {
		r := run(policy)
		// Weighted speedup: sum over cores of IPC/IPC_LRU, /cores.
		ws := 0.0
		for i := range r.CoreIPC {
			ws += r.CoreIPC[i] / base.CoreIPC[i]
		}
		rows = append(rows, row{policy, ws / float64(len(r.CoreIPC))})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ws > rows[j].ws })

	fmt.Printf("%-12s %s\n", "policy", "normalized weighted speedup vs LRU")
	for _, r := range rows {
		bar := ""
		for n := 0.80; n < r.ws; n += 0.01 {
			bar += "#"
		}
		fmt.Printf("%-12s %.4f  %s\n", r.policy, r.ws, bar)
	}
}
