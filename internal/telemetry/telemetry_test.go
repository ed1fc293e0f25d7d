package telemetry

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fakeInterval builds a plausible two-core interval for writer tests.
func fakeInterval(tag string, i int, ipc float64, withCARE bool) Interval {
	start := uint64(i) * 1000
	iv := Interval{
		Tag: tag, Index: i, Start: start, End: start + 1000,
		Cores: []CoreSample{
			{Instructions: uint64(ipc * 1000), Cycles: 1000, IPC: ipc, LLCMisses: 10, MPKI: 10},
			{Instructions: uint64(ipc * 1000), Cycles: 1000, IPC: ipc, LLCMisses: 20, MPKI: 20},
		},
		LLC:  LLCSample{Accesses: 100, Hits: 70, Misses: 30, PureMisses: 12, MissRate: 0.3, PureMissRate: 0.12, MeanPMC: 42.5},
		MSHR: MSHRSample{Occupancy: 3, Capacity: 64, OccHist: [occBuckets]uint32{16}},
		DRAM: DRAMSample{Reads: 30, Writes: 5, RowHits: 18, RowMisses: 12, RowHitRate: 0.6, QueueDepth: 2},
	}
	if withCARE {
		iv.CARE = &CARESample{PMCLow: 50, PMCHigh: 350, Epoch: uint64(i), Raises: 1, InsertEPV: [4]uint64{5, 0, 3, 22}}
	}
	return iv
}

// writeSeries renders series in format, failing the test on error.
func writeSeries(t *testing.T, format string, series ...Series) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, format, series); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestJSONLRoundTrip(t *testing.T) {
	meta := Meta{Tag: "mcf/care/c2", Cores: 2, Interval: 1000, Policy: "care", MSHRCapacity: 64}
	want := []Interval{fakeInterval("mcf/care/c2", 0, 1.0, true), fakeInterval("mcf/care/c2", 1, 0.5, true)}
	buf := writeSeries(t, "jsonl", Series{Meta: meta, Intervals: want})

	series, err := ReadJSONL(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("got %d series, want 1", len(series))
	}
	if series[0].Meta != meta {
		t.Errorf("meta round trip: got %+v want %+v", series[0].Meta, meta)
	}
	if len(series[0].Intervals) != 2 {
		t.Fatalf("got %d intervals, want 2", len(series[0].Intervals))
	}
	got := series[0].Intervals[1]
	if got.Index != 1 || got.LLC.MeanPMC != 42.5 || got.CARE == nil || got.CARE.InsertEPV[3] != 22 {
		t.Errorf("interval round trip mismatch: %+v", got)
	}
}

func TestReadJSONLMultipleTags(t *testing.T) {
	var in []Series
	for _, tag := range []string{"a", "b"} {
		s := Series{Meta: Meta{Tag: tag, Cores: 2, Interval: 1000}}
		for i := 0; i < 3; i++ {
			s.Intervals = append(s.Intervals, fakeInterval(tag, i, 1.0, false))
		}
		in = append(in, s)
	}
	series, err := ReadJSONL(writeSeries(t, "jsonl", in...))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Meta.Tag != "a" || series[1].Meta.Tag != "b" {
		t.Fatalf("bad grouping: %+v", series)
	}
	for _, s := range series {
		if len(s.Intervals) != 3 {
			t.Errorf("tag %s: %d intervals, want 3", s.Meta.Tag, len(s.Intervals))
		}
	}
}

// TestReadJSONLDuplicateRuns: a stream that holds a run twice — tag a,
// then b, then a again — parses as three runs: the second meta line of
// a begins a new series instead of extending the first.
func TestReadJSONLDuplicateRuns(t *testing.T) {
	var in []Series
	for _, run := range []struct {
		tag       string
		interval  uint64
		intervals int
	}{{"a", 1000, 2}, {"b", 1000, 1}, {"a", 500, 3}} {
		s := Series{Meta: Meta{Tag: run.tag, Cores: 2, Interval: run.interval}}
		for i := 0; i < run.intervals; i++ {
			s.Intervals = append(s.Intervals, fakeInterval(run.tag, i, 1.0, false))
		}
		in = append(in, s)
	}
	series, err := ReadJSONL(writeSeries(t, "jsonl", in...))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sr := range series {
		got = append(got, fmt.Sprintf("%s/%d:%d", sr.Meta.Tag, sr.Meta.Interval, len(sr.Intervals)))
	}
	if want := []string{"a/1000:2", "b/1000:1", "a/500:3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("series (tag/interval:intervals) = %v, want %v", got, want)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"not json\n",
		`{"tag":"x"}` + "\n",                   // no cores, no span
		`{"tag":"x","i":0,"start":5,"end":5}`,  // empty span
		"{\"meta\":{\"tag\":\"ok\"}}\nbroken{", // good line then bad line
	} {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: want parse error, got nil", in)
		}
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	buf := writeSeries(t, "jsonl", Series{Meta: Meta{Tag: "t"}, Intervals: []Interval{fakeInterval("t", 0, 1.0, false)}})
	in := "\n" + buf.String() + "\n\n"
	series, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Intervals) != 1 {
		t.Fatalf("got %+v", series)
	}
}

func TestWriteCSV(t *testing.T) {
	buf := writeSeries(t, "csv",
		Series{Meta: Meta{Tag: "a"}, Intervals: []Interval{fakeInterval("a,weird\"tag", 0, 1.25, true)}},
		Series{Meta: Meta{Tag: "b"}}) // merged file: one header
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 2 core rows + 1 aggregate row
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "tag,interval,start,end,warmup,core") {
		t.Errorf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], `"a,weird""tag",`) {
		t.Errorf("tag not CSV-escaped: %s", lines[1])
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	for i, rec := range recs {
		if len(rec) != len(recs[0]) {
			t.Errorf("row %d has %d columns, header has %d", i, len(rec), len(recs[0]))
		}
	}
	if recs[1][0] != `a,weird"tag` {
		t.Errorf("tag cell round trip: %q", recs[1][0])
	}
	if recs[3][5] != "-1" {
		t.Errorf("aggregate row core = %q, want -1", recs[3][5])
	}
}

func TestWriteProm(t *testing.T) {
	out := writeSeries(t, "prom", Series{Meta: Meta{Tag: "t"}, Intervals: []Interval{fakeInterval(`ta"g`, 2, 0.8, true)}}).String()
	for _, want := range []string{
		"# TYPE care_interval_ipc gauge",
		`care_interval_ipc{tag="ta\"g",core="0"} 0.8 3000`,
		`care_dtrm_pmc_high{tag="ta\"g"} 350 3000`,
		`care_dtrm_epoch{tag="ta\"g"} 2 3000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteFormats: every listed format writes, and an unknown one
// is refused; with no series CSV and Prometheus text write nothing.
func TestWriteFormats(t *testing.T) {
	for _, f := range Formats() {
		if !ValidFormat(f) {
			t.Errorf("ValidFormat(%q) = false", f)
		}
		if out := writeSeries(t, f); out.Len() != 0 {
			t.Errorf("Write(%q) of no series wrote %q", f, out)
		}
	}
	if err := Write(io.Discard, "xml", nil); err == nil {
		t.Error("Write(xml): want error")
	}
	if ValidFormat("xml") {
		t.Error("ValidFormat(xml) = true")
	}
}

// TestSeriesCopies: Series returns intervals that share no samples
// with the collector's store.
func TestSeriesCopies(t *testing.T) {
	c := &Collector{slots: []Interval{fakeInterval("t", 0, 1.0, true)}, count: 1}
	got := c.Series()
	c.slots[0].Cores[0].Instructions = 999999
	c.slots[0].CARE.Epoch = 77
	if got[0].Cores[0].Instructions == 999999 || got[0].CARE.Epoch == 77 {
		t.Error("Series aliases the collector's samples; must deep-copy")
	}
}

func TestIntervalAggregates(t *testing.T) {
	iv := fakeInterval("t", 0, 1.0, false)
	if got := iv.Instructions(); got != 2000 {
		t.Errorf("Instructions = %d, want 2000", got)
	}
	if got := iv.IPC(); got != 2.0 {
		t.Errorf("IPC = %v, want 2", got)
	}
	// 30 misses / 2000 instr * 1000 = 15.
	if got := iv.MPKI(); got != 15 {
		t.Errorf("MPKI = %v, want 15", got)
	}
	var zero Interval
	if zero.IPC() != 0 || zero.MPKI() != 0 {
		t.Error("zero interval must not divide by zero")
	}
}

func TestSegmentPhases(t *testing.T) {
	var ivs []Interval
	for i := 0; i < 5; i++ {
		ivs = append(ivs, fakeInterval("t", i, 1.0, false))
	}
	for i := 5; i < 9; i++ {
		ivs = append(ivs, fakeInterval("t", i, 0.4, false))
	}
	phases := SegmentPhases(ivs, 0.15)
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2: %+v", len(phases), phases)
	}
	if phases[0].First != 0 || phases[0].Last != 4 || phases[1].First != 5 || phases[1].Last != 8 {
		t.Errorf("bad boundaries: %+v", phases)
	}
	if phases[0].IPC < 1.9 || phases[1].IPC > 0.9 {
		t.Errorf("bad phase IPCs: %v / %v", phases[0].IPC, phases[1].IPC)
	}
	if phases[0].Intervals() != 5 || phases[1].Cycles() != 4000 {
		t.Errorf("bad extents: %+v", phases)
	}
	// One flat phase when tolerance swallows the jump.
	if got := SegmentPhases(ivs, 10); len(got) != 1 {
		t.Errorf("huge tolerance: got %d phases, want 1", len(got))
	}
	if got := SegmentPhases(nil, 0); got != nil {
		t.Errorf("empty input: got %+v", got)
	}
}

func TestSegmentPhasesEpochs(t *testing.T) {
	var ivs []Interval
	for i := 0; i < 4; i++ {
		iv := fakeInterval("t", i, 1.0, true)
		iv.CARE.Epoch = uint64(i * 2)
		ivs = append(ivs, iv)
	}
	phases := SegmentPhases(ivs, 0.15)
	if len(phases) != 1 {
		t.Fatalf("got %d phases, want 1", len(phases))
	}
	if !phases[0].HasCARE || phases[0].Epochs != 6 {
		t.Errorf("epochs = %d (hasCARE=%v), want 6", phases[0].Epochs, phases[0].HasCARE)
	}
}

func TestMeasuredFilter(t *testing.T) {
	warm := fakeInterval("t", 0, 1.0, false)
	warm.Warmup = true
	out := Measured([]Interval{warm, fakeInterval("t", 0, 1.0, false)})
	if len(out) != 1 || out[0].Warmup {
		t.Fatalf("got %+v", out)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tag := fmt.Sprintf("run-%02d", i)
			r.Add(Meta{Tag: tag, Cores: 2, Interval: 1000},
				[]Interval{fakeInterval(tag, 0, 1.0, false)})
		}(i)
	}
	wg.Wait()
	if r.Len() != 16 {
		t.Fatalf("registry has %d series, want 16", r.Len())
	}
	series := r.Series()
	for i := 1; i < len(series); i++ {
		if series[i-1].Meta.Tag > series[i].Meta.Tag {
			t.Fatal("Series() not sorted by tag")
		}
	}
	got, err := ReadJSONL(writeSeries(t, "jsonl", series...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("merged output has %d series, want 16", len(got))
	}
}

// errWriter fails every write.
type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

func TestWritePropagatesErrors(t *testing.T) {
	series := []Series{{Meta: Meta{Tag: "t"}, Intervals: []Interval{fakeInterval("t", 0, 1, false)}}}
	diskFull := errors.New("disk full")
	for _, f := range Formats() {
		if err := Write(errWriter{diskFull}, f, series); !errors.Is(err, diskFull) {
			t.Errorf("%s: got %v, want %v", f, err, diskFull)
		}
	}
}
