package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyParams(t *testing.T, traced bool) params {
	return params{seed: 7, seconds: 0.2, traced: traced, workDir: t.TempDir(), tiny: true}
}

// TestEveryWorkloadEmitsEveryMetric runs every workload at a tiny size,
// untraced and traced, through the command's entry point, and checks
// the result line against BENCHMARK.json.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	have := map[string]bool{}
	for _, w := range workloads() {
		have[w.name] = true
	}
	for _, w := range bf.Workloads {
		if !have[w.Name] {
			t.Fatalf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
	}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			rep, err := w.run(tinyParams(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := resultOf(rep, traced)
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d problems=%v", w.name, traced, res.Correct, res.Attempted, rep.problems)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestCommandPrintsResultLast checks the command-line contract at full
// size: the last line of standard output is the result object with
// exactly its four keys.
func TestCommandPrintsResultLast(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "sim-mcf", "-seed", "3", "-seconds", "0.2",
		"-workdir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
	if !strings.Contains(lines[0], `"nproc"`) || !strings.Contains(lines[0], `"cpu_model"`) {
		t.Errorf("first line does not stamp the host: %s", lines[0])
	}
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestWrongCacheValueFailsTheRun plants a wrong value for the hottest
// key; the timed loop must count the hits that return it.
func TestWrongCacheValueFailsTheRun(t *testing.T) {
	s := cacheZipf
	s.capacity, s.keys, s.stream, s.batch = 1<<12, 64<<12, 1<<14, 1<<10
	ref := newHostRef(runtime.GOMAXPROCS(0))
	ref.start()
	rig, _, err := buildCache(s, 1, runtime.GOMAXPROCS(0), ref)
	if err != nil {
		t.Fatal(err)
	}
	rig.c.Put(0, valueOf(0)+1)
	rep := newReport()
	checkCache(measureCache(rig, 0.1, 1, false), rep)
	if resultOf(rep, false).Correct || rep.failed == 0 {
		t.Fatalf("a wrong value on a hit passed: failed=%d problems=%v", rep.failed, rep.problems)
	}
}

// TestWrongJobResultFailsTheRun runs a tiny campaign, then alters one
// job's result; the check against the direct runs must catch it.
func TestWrongJobResultFailsTheRun(t *testing.T) {
	p := tinyParams(t, false)
	s := tinyCampaign(campaign)
	ph, err := measureCampaign(s, p, filepath.Join(p.workDir, "c"), nil)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := references(ph.listed, p.workDir)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	checkCampaign(ph, refs, rep)
	if len(rep.problems) != 0 || rep.failed != 0 {
		t.Fatalf("clean campaign failed its check: %v", rep.problems)
	}
	ph.listed[0].Result = bytes.Replace(ph.listed[0].Result, []byte(`"Cycles":`), []byte(`"Cycles":1`), 1)
	rep = newReport()
	checkCampaign(ph, refs, rep)
	if rep.failed != 1 || resultOf(rep, false).Correct {
		t.Fatalf("an altered result passed: failed=%d problems=%v", rep.failed, rep.problems)
	}
}

// TestSimCheck rejects a core short of its budget and an LLC whose
// hits and misses do not add up.
func TestSimCheck(t *testing.T) {
	good := simCounters{CoreRetired: []uint64{10, 10}, LLCAccesses: 5, LLCHits: 2, LLCMisses: 3}
	rep := newReport()
	checkSim(good, 10, rep)
	if len(rep.problems) != 0 {
		t.Fatalf("good counters failed: %v", rep.problems)
	}
	bad := good
	bad.CoreRetired = []uint64{10, 9}
	bad.LLCMisses = 2
	checkSim(bad, 10, rep)
	if len(rep.problems) != 2 {
		t.Fatalf("got %d problems, want 2: %v", len(rep.problems), rep.problems)
	}
}
