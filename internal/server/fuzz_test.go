package server

import (
	"bytes"
	"testing"

	"care/internal/graph"
	"care/internal/harness"
	"care/internal/synth"
)

// FuzzJobSpec feeds arbitrary bytes through the POST /api/v1/jobs
// decode and ValidateSpec. It must never panic, and every spec it
// accepts must stay inside the bounds a worker can run: a known
// workload and 1 to harness.MaxCores cores.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"spec","workload":"429.mcf","policy":"care","cores":1,"measure":1000}`,
		`{"kind":"gap","workloads":["bfs-or","pr-twitter"],"policies":["lru","care"],"core_counts":[1,64],"measure":10}`,
		`{"kind":"spec","workload":"429.mcf","policy":"care","cores":1000000,"scale":1,"measure":1}`,
		`{"kind":"gap","workload":"bfs","policy":"lru","cores":1,"measure":1}`,
		`{"kind":"spec","workload":"mcf","policy":"lru","cores":2,"measure":1,"priority":100,"constraints":{"labels":["x"]}}`,
		`{"workloads":["a","b","c"],"core_counts":[-1,0]}`,
		`{`, `null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	gap := map[string]bool{}
	for _, k := range graph.Kernels() {
		for _, d := range graph.Datasets() {
			gap[k+"-"+d.Short], gap[k+"-"+d.Name] = true, true
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, err := decodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(specs) == 0 || len(specs) > maxSweep {
			t.Fatalf("accepted %d specs", len(specs))
		}
		for _, s := range specs {
			if s.Cores < 1 || s.Cores > harness.MaxCores {
				t.Fatalf("accepted %d cores", s.Cores)
			}
			switch s.Kind {
			case "spec":
				if _, err := synth.Lookup(s.Workload); err != nil {
					t.Fatalf("accepted unknown workload: %v", err)
				}
			case "gap":
				if !gap[s.Workload] {
					t.Fatalf("accepted unknown GAP workload %q", s.Workload)
				}
			default:
				t.Fatalf("accepted kind %q", s.Kind)
			}
		}
	})
}
