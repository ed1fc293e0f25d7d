package harness

import (
	"fmt"

	"care/cache"
	"care/internal/stats"
	"care/internal/synth"
)

// The service replay is fixed: every cell replays the same number of
// operations into a cache of the same size, so the hit ratios and
// eviction counts are exactly reproducible and comparable across
// schemes.
const (
	svcOps      = 400_000
	svcCapacity = 8192
	svcSeed     = 1 // cache seed; the key streams use svcSeed+1
)

// svcSchemes is svc's default comparison set.
var svcSchemes = []string{"lru", "srrip", "ship++", "care"}

// runSvc compares replacement policies inside the care/cache library
// on the service-traffic workloads of synth.ServiceTraces. Each
// workload × scheme cell replays a read-through key stream
// single-threaded into a fresh cache. Options.Workloads does not
// apply; Options.Schemes must name policies the library supports.
func runSvc(o *Options) error {
	schemes := o.Schemes
	if len(schemes) == 0 {
		schemes = svcSchemes
	}
	t := stats.NewTable("workload", "policy", "hit%", "evictions", "Δ vs lru (points)")
	for i, tr := range synth.ServiceTraces(svcCapacity, svcSeed+1) {
		lru, err := replayService("lru", i)
		if err != nil {
			return fmt.Errorf("%s/lru: %w", tr.Name(), err)
		}
		for _, s := range schemes {
			st, err := replayService(s, i)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", tr.Name(), s, err)
			}
			t.AddRow(tr.Name(), s, fmt.Sprintf("%.2f", 100*st.HitRatio()), st.Evictions,
				fmt.Sprintf("%+.2f", 100*(st.HitRatio()-lru.HitRatio())))
		}
	}
	emitTable(o, t)
	return nil
}

// replayService replays svcOps read-through operations of service
// workload i into a fresh single-threaded cache run by policy and
// returns its stats.
func replayService(policy string, i int) (cache.Stats, error) {
	c, err := cache.New(cache.Options[uint64, uint64]{
		Capacity: svcCapacity, Policy: policy, Seed: svcSeed,
	})
	if err != nil {
		return cache.Stats{}, err
	}
	tr := synth.ServiceTraces(svcCapacity, svcSeed+1)[i]
	for n := 0; n < svcOps; n++ {
		op := tr.Next()
		if _, ok := c.Get(op.Key); !ok {
			c.PutCost(op.Key, op.Key, op.Cost)
		}
	}
	return c.Stats(), nil
}
