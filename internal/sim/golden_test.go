package sim

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"care/internal/checkpoint"
	"care/internal/faultinject"
	"care/internal/graph"
	"care/internal/policy"
	"care/internal/prefetch"
	"care/internal/synth"
	"care/internal/telemetry"
	"care/internal/trace"
)

// updateGolden rewrites testdata/golden.txt from the current
// simulator: go test ./internal/sim -run TestGoldenDigests -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.txt with the current digests")

const goldenFile = "testdata/golden.txt"

// stateSuffix names a case's second digest, over its stored state.
const stateSuffix = "#state"

// goldenCase is one run of the golden matrix.
type goldenCase struct {
	name     string
	workload string
	cores    int
	policy   policy.Policy
	// mut adjusts the base configuration (nil = none).
	mut func(*Config)
	// sys adjusts the system New built from it (nil = none).
	sys func(*System)
	// faults is a faultinject spec; chaos runs go through the plain
	// warmup+measure loop with a cycle cap and a short watchdog window
	// instead of the checkpoint schedule.
	faults string
	// drain runs finite traces to exhaustion and then Drain.
	drain bool
}

// goldenCases is the fixed matrix: three workloads × c1/c4 × three
// policies on the checkpoint schedule, the other five policies on
// 429.mcf/c4, plus the stream prefetchers and the invariant sweep,
// every chaos class of TestFaultChaosRepeatable plus the dropped
// response, metadata flip and kill classes, and a Drain run.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, w := range []string{"429.mcf", "401.bzip2", "bfs-or"} {
		for _, cores := range []int{1, 4} {
			for _, p := range []policy.Policy{policy.LRU, policy.SHiPPP, policy.CARE} {
				out = append(out, goldenCase{
					name: fmt.Sprintf("%s/c%d/%s", w, cores, p), workload: w, cores: cores, policy: p,
				})
			}
		}
	}
	// The other policies' walks, one case each.
	for _, p := range []policy.Policy{policy.Glider, policy.Hawkeye, policy.MCARE, policy.Mockingjay, policy.SRRIP} {
		out = append(out, goldenCase{
			name: "429.mcf/c4/" + string(p), workload: "429.mcf", cores: 4, policy: p,
		})
	}
	for _, x := range []struct {
		name string
		mut  func(*Config)
		sys  func(*System)
	}{
		{"stream-prefetch", func(c *Config) { c.L2Prefetcher = "stream" }, streamL1},
		{"invariants", func(c *Config) { c.CheckInvariants = true; c.InvariantEvery = 512 }, nil},
	} {
		out = append(out, goldenCase{
			name: "429.mcf/c4/care/" + x.name, workload: "429.mcf", cores: 4, policy: policy.CARE, mut: x.mut, sys: x.sys,
		})
	}
	for _, spec := range []string{
		"seed=7,trace-flip=64",
		"seed=11,dram-delay=40,dram-delay-cycles=97",
		"seed=3,trace-flip=96,dram-delay=150",
		"seed=5,mshr-saturate=9000",
		"seed=9,trace-corrupt=2500",
		"seed=1,dram-drop=50",
		"seed=2,meta-flip=5000",
		"seed=4,kill-at=20000",
	} {
		out = append(out, goldenCase{
			name: "429.mcf/c4/care/faults=" + spec, workload: "429.mcf", cores: 4, policy: policy.CARE, faults: spec,
		})
	}
	out = append(out, goldenCase{
		name: "429.mcf/c2/care/drain", workload: "429.mcf", cores: 2, policy: policy.CARE, drain: true,
	})
	return out
}

// streamL1 puts a stream prefetcher at every L1 in place of the
// paper's next-line one.
func streamL1(s *System) {
	for _, l1 := range s.l1s {
		l1.SetPrefetcher(prefetch.NewStream())
	}
}

// goldenTraces builds the per-core readers of a workload: synthetic
// SPEC-like generators, or desynchronised copies of a GAP kernel trace.
func goldenTraces(t *testing.T, workload string, cores int) []trace.Reader {
	t.Helper()
	if kernel, dataset, ok := strings.Cut(workload, "-"); ok && len(kernel) <= 4 {
		g, err := graph.LoadDataset(dataset)
		if err != nil {
			t.Fatal(err)
		}
		base, err := graph.Trace(kernel, g, 40_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		return trace.Copies(base.Records, cores)
	}
	p, err := synth.Lookup(workload)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]trace.Reader, cores)
	for i := range out {
		out[i] = synth.NewScaledGenerator(p, uint64(i+1), 16)
	}
	return out
}

// goldenDigest runs one case and hashes everything it produces into
// two digests. run covers what the simulation computes: the error, the
// Result, the final cycle, every core, L1, L2, LLC and DRAM counter
// set, the CARE counters and the telemetry JSONL stream. state covers
// how that state is stored: the PML's internal state and the
// checkpoint files. A change to the checkpoint encoding moves only
// state; a change to simulated behaviour moves run.
func goldenDigest(t *testing.T, gc goldenCase) (run, state string) {
	t.Helper()
	cfg := ScaledConfig(gc.cores, 16)
	cfg.LLCPolicy = gc.policy
	cfg.Prefetch = true
	if gc.mut != nil {
		gc.mut(&cfg)
	}
	var jsonl bytes.Buffer
	col := telemetry.NewCollector(telemetry.Options{Interval: 1500, Tag: gc.name})
	cfg.Telemetry = col
	traces := goldenTraces(t, gc.workload, gc.cores)
	var ckpt string
	var res Result
	var err error
	var s *System
	build := func() *System {
		s, err := New(cfg, traces)
		if err != nil {
			t.Fatal(err)
		}
		if gc.sys != nil {
			gc.sys(s)
		}
		return s
	}
	switch {
	case gc.faults != "":
		fc, perr := faultinject.ParseSpec(gc.faults)
		if perr != nil {
			t.Fatal(perr)
		}
		cfg.Faults = &fc
		cfg.MaxCycles = 60_000
		cfg.WatchdogWindow = 20_000
		cfg.CheckInvariants = true
		s = build()
		res, err = runPlain(s, 1500, 6000)
	case gc.drain:
		for i, r := range traces {
			sl, cerr := trace.Collect(r, 1500+400*i)
			if cerr != nil {
				t.Fatal(cerr)
			}
			traces[i] = sl
		}
		s = build()
		if _, err = s.RunInstructions(1 << 20); err == nil {
			err = s.Drain()
		}
		s.closeTelemetry()
		res = s.Snapshot()
	default:
		s = build()
		ckpt = filepath.Join(t.TempDir(), "run.ckpt")
		res, _, err = Execute(context.Background(), Job{
			Build:      func() (*System, error) { return s, nil },
			Warmup:     2000,
			Measure:    6000,
			Checkpoint: CheckpointOptions{Path: ckpt, Every: 2000},
		})
	}

	if err := writeJSONL(&jsonl, col); err != nil {
		t.Fatal(err)
	}
	h, hs := sha256.New(), sha256.New()
	put := func(label string, v any) { fmt.Fprintf(h, "%s=%+v\n", label, v) }
	put("err", err)
	put("result", res)
	put("cycle", s.Cycle())
	for i, c := range s.cores {
		put(fmt.Sprintf("core%d", i), *c.Stats())
	}
	for _, c := range s.allCaches() {
		put(c.Name, *c.Stats())
	}
	put("dram", *s.mem.Stats())
	if cs := s.CAREStats(); cs != nil {
		put("care", *cs)
	}
	hashBytes(h, "telemetry", jsonl.Bytes())
	pml, perr := checkpoint.Encode(s.pml.Checkpoint)
	if perr != nil {
		t.Fatal(perr)
	}
	hashBytes(hs, "pmc", pml)
	if ckpt != "" {
		for _, p := range []string{ckpt, RotatedPath(ckpt)} {
			data, rerr := os.ReadFile(p)
			if rerr != nil {
				t.Fatalf("%s: %v", gc.name, rerr)
			}
			hashBytes(hs, filepath.Base(p), data)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(hs.Sum(nil))
}

// runPlain is Run on an already-built system, so the caller can read
// its components afterwards.
func runPlain(s *System, warmup, measure uint64) (Result, error) {
	s.tele.MarkWarmup()
	_, err := s.RunInstructions(warmup)
	if err == nil {
		s.ResetStats()
		_, err = s.RunInstructions(measure)
	}
	s.closeTelemetry()
	return s.Snapshot(), err
}

// writeJSONL writes the collector's series as JSONL, the stream the
// digests hash.
func writeJSONL(w io.Writer, col *telemetry.Collector) error {
	return telemetry.Write(w, "jsonl", []telemetry.Series{{Meta: col.Meta(), Intervals: col.Series()}})
}

func hashBytes(h hash.Hash, label string, data []byte) {
	fmt.Fprintf(h, "%s:%d\n", label, len(data))
	h.Write(data)
}

// readGolden parses testdata/golden.txt: one "digest name" per line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (record the digests with -update-golden)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		digest, name, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: bad line %q", goldenFile, line)
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenDigests is the byte-identity oracle for the cycle loop:
// every run of the matrix must reproduce the digest recorded in
// testdata/golden.txt. Any change to simulated behaviour, to an output
// format or to a counter changes a digest; a change that only makes
// the simulator faster must not.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes the
		// low bits of float metrics the digests cover.
		t.Skipf("digests are recorded for amd64 float semantics, not %s", runtime.GOARCH)
	}
	cases := goldenCases()
	got := make(map[string]string, 2*len(cases))
	for _, gc := range cases {
		got[gc.name], got[gc.name+stateSuffix] = goldenDigest(t, gc)
	}
	if *updateGolden {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# SHA-256 digests of the TestGoldenDigests matrix; regenerate with -update-golden.\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", got[n], n)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for _, gc := range cases {
		for _, name := range []string{gc.name, gc.name + stateSuffix} {
			w, ok := want[name]
			switch {
			case !ok:
				t.Errorf("%s: no recorded digest", name)
			case w != got[name]:
				t.Errorf("%s: digest %s, recorded %s", name, got[name], w)
			}
		}
	}
	if len(want) != 2*len(cases) {
		t.Errorf("%s records %d digests, the matrix has %d", goldenFile, len(want), 2*len(cases))
	}
}
