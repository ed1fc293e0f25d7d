package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Formats lists the formats Write renders, for -telemetry flags.
func Formats() []string { return []string{"csv", "jsonl", "prom"} }

// ValidFormat reports whether name names a format Write renders.
func ValidFormat(name string) bool {
	for _, f := range Formats() {
		if f == name {
			return true
		}
	}
	return false
}

// Write renders finished series to w in format ("csv", "jsonl" or
// "prom"), in the order given. JSONL opens each series with a meta
// line; CSV and Prometheus text carry one header for all series and
// write nothing for none.
func Write(w io.Writer, format string, series []Series) error {
	bw := bufio.NewWriter(w)
	switch format {
	case "jsonl":
		if err := writeJSONL(bw, series); err != nil {
			return err
		}
	case "csv":
		writeRows(bw, csvHeader, series, writeCSVRows)
	case "prom":
		writeRows(bw, promHeader(), series, writePromSamples)
	default:
		return fmt.Errorf("telemetry: unknown format %q (have %s)",
			format, strings.Join(Formats(), ", "))
	}
	return bw.Flush()
}

// writeRows writes header once, then every interval of every series.
func writeRows(bw *bufio.Writer, header string, series []Series, row func(*bufio.Writer, *Interval)) {
	if len(series) == 0 {
		return
	}
	bw.WriteString(header)
	for _, s := range series {
		for i := range s.Intervals {
			row(bw, &s.Intervals[i])
		}
	}
}

// Ext returns the conventional file extension for a format.
func Ext(format string) string {
	switch format {
	case "jsonl":
		return ".jsonl"
	case "csv":
		return ".csv"
	case "prom":
		return ".prom"
	default:
		return ".out"
	}
}

// writeJSONL writes one JSON object per line: a {"meta": ...} line per
// series followed by one object per interval. This is the format
// cmd/care-report consumes (see ReadJSONL).
func writeJSONL(bw *bufio.Writer, series []Series) error {
	enc := json.NewEncoder(bw)
	for _, s := range series {
		if err := enc.Encode(metaLine{Meta: &s.Meta}); err != nil {
			return err
		}
		for i := range s.Intervals {
			if err := enc.Encode(&s.Intervals[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// metaLine wraps a Meta so series-metadata lines are distinguishable
// from interval lines.
type metaLine struct {
	Meta *Meta `json:"meta"`
}

// CSV is a flat table: one row per (interval, core) plus one aggregate
// row per interval (core == -1), for spreadsheet and plot pipelines.
var csvHeader = strings.Join([]string{
	"tag", "interval", "start", "end", "warmup", "core",
	"instr", "ipc", "mpki", "llc_misses", "rob_stall",
	"llc_accesses", "llc_hits", "llc_pure", "llc_miss_rate", "llc_pmr", "mean_pmc",
	"mshr_occ", "mshr_cap", "dram_reads", "dram_writes", "dram_row_hit_rate", "dram_queue",
	"pmc_low", "pmc_high", "dtrm_epoch", "dtrm_raises", "dtrm_lowers",
}, ",") + "\n"

// writeCSVRows writes one interval's per-core and aggregate rows.
func writeCSVRows(b *bufio.Writer, iv *Interval) {
	low, high, epoch, raises, lowers := 0.0, 0.0, uint64(0), uint64(0), uint64(0)
	if iv.CARE != nil {
		low, high = iv.CARE.PMCLow, iv.CARE.PMCHigh
		epoch, raises, lowers = iv.CARE.Epoch, iv.CARE.Raises, iv.CARE.Lowers
	}
	row := func(core int, instr uint64, ipc, mpki float64, llcMiss, robStall uint64) {
		fmt.Fprintf(b, "%s,%d,%d,%d,%t,%d,%d,%.6f,%.4f,%d,%d,%d,%d,%d,%.6f,%.6f,%.4f,%d,%d,%d,%d,%.4f,%d,%.1f,%.1f,%d,%d,%d\n",
			csvEscape(iv.Tag), iv.Index, iv.Start, iv.End, iv.Warmup, core,
			instr, ipc, mpki, llcMiss, robStall,
			iv.LLC.Accesses, iv.LLC.Hits, iv.LLC.PureMisses, iv.LLC.MissRate, iv.LLC.PureMissRate, iv.LLC.MeanPMC,
			iv.MSHR.Occupancy, iv.MSHR.Capacity, iv.DRAM.Reads, iv.DRAM.Writes, iv.DRAM.RowHitRate, iv.DRAM.QueueDepth,
			low, high, epoch, raises, lowers)
	}
	var aggMiss, aggStall uint64
	for i := range iv.Cores {
		cs := &iv.Cores[i]
		row(i, cs.Instructions, cs.IPC, cs.MPKI, cs.LLCMisses, cs.ROBStallCycles)
		aggMiss += cs.LLCMisses
		aggStall += cs.ROBStallCycles
	}
	row(-1, iv.Instructions(), iv.IPC(), iv.MPKI(), aggMiss, aggStall)
}

// csvEscape quotes a cell containing separators or quotes.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

// Prometheus text exposition format: one sample per metric per
// interval with the interval's end cycle as the timestamp (Prometheus
// timestamps are nominally milliseconds; here they carry simulated
// cycles, which scrape-less offline tooling treats as an opaque
// x-axis).
var promFamilies = []struct{ name, help string }{
	{"care_interval_ipc", "per-core IPC over the interval"},
	{"care_interval_mpki", "per-core LLC demand MPKI over the interval"},
	{"care_interval_llc_miss_rate", "LLC miss rate over the interval"},
	{"care_interval_llc_pure_miss_rate", "LLC pure miss rate (pMR) over the interval"},
	{"care_interval_llc_mean_pmc", "mean PMC per miss completed in the interval"},
	{"care_interval_mshr_occupancy", "LLC MSHR occupancy at the interval boundary"},
	{"care_interval_dram_row_hit_rate", "DRAM row hit rate over the interval"},
	{"care_interval_dram_queue_depth", "DRAM queue depth at the interval boundary"},
	{"care_dtrm_pmc_low", "DTRM low threshold at the interval boundary"},
	{"care_dtrm_pmc_high", "DTRM high threshold at the interval boundary"},
	{"care_dtrm_epoch", "completed DTRM periods"},
}

// promHeader is the HELP and TYPE lines of every family.
func promHeader() string {
	var b strings.Builder
	for _, f := range promFamilies {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", f.name, f.help, f.name)
	}
	return b.String()
}

// promEscape escapes a label value.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// writePromSamples writes one interval's samples.
func writePromSamples(b *bufio.Writer, iv *Interval) {
	tag := promEscape(iv.Tag)
	ts := iv.End
	for i := range iv.Cores {
		fmt.Fprintf(b, "care_interval_ipc{tag=\"%s\",core=\"%d\"} %g %d\n", tag, i, iv.Cores[i].IPC, ts)
		fmt.Fprintf(b, "care_interval_mpki{tag=\"%s\",core=\"%d\"} %g %d\n", tag, i, iv.Cores[i].MPKI, ts)
	}
	fmt.Fprintf(b, "care_interval_llc_miss_rate{tag=\"%s\"} %g %d\n", tag, iv.LLC.MissRate, ts)
	fmt.Fprintf(b, "care_interval_llc_pure_miss_rate{tag=\"%s\"} %g %d\n", tag, iv.LLC.PureMissRate, ts)
	fmt.Fprintf(b, "care_interval_llc_mean_pmc{tag=\"%s\"} %g %d\n", tag, iv.LLC.MeanPMC, ts)
	fmt.Fprintf(b, "care_interval_mshr_occupancy{tag=\"%s\"} %d %d\n", tag, iv.MSHR.Occupancy, ts)
	fmt.Fprintf(b, "care_interval_dram_row_hit_rate{tag=\"%s\"} %g %d\n", tag, iv.DRAM.RowHitRate, ts)
	fmt.Fprintf(b, "care_interval_dram_queue_depth{tag=\"%s\"} %d %d\n", tag, iv.DRAM.QueueDepth, ts)
	if iv.CARE != nil {
		fmt.Fprintf(b, "care_dtrm_pmc_low{tag=\"%s\"} %g %d\n", tag, iv.CARE.PMCLow, ts)
		fmt.Fprintf(b, "care_dtrm_pmc_high{tag=\"%s\"} %g %d\n", tag, iv.CARE.PMCHigh, ts)
		fmt.Fprintf(b, "care_dtrm_epoch{tag=\"%s\"} %d %d\n", tag, iv.CARE.Epoch, ts)
	}
}

// ---- merged series (harness) ----

// Series is one run's metadata plus its ordered intervals.
type Series struct {
	Meta      Meta
	Intervals []Interval
}

// Registry accumulates tagged series from concurrently running
// simulations; all methods are safe for concurrent use. The harness
// gives every experiment simulation its own collector and registers
// the finished series here, so parallel workers never share one.
type Registry struct {
	mu     sync.Mutex
	series []Series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add registers one finished series.
func (r *Registry) Add(meta Meta, ivs []Interval) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series = append(r.series, Series{Meta: meta, Intervals: ivs})
}

// Len returns the number of registered series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.series)
}

// Series returns the registered series sorted by tag.
func (r *Registry) Series() []Series {
	r.mu.Lock()
	out := append([]Series(nil), r.series...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.Tag < out[j].Meta.Tag })
	return out
}
