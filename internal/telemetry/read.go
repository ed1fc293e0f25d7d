package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ReadJSONL parses a JSONL telemetry stream (as Write renders it,
// possibly several concatenated or merged runs) and groups the
// intervals into per-run series, in the order the series first appear.
// A meta line begins a run: an interval belongs to the latest run of
// its tag, and a second meta line for a tag that already has one
// begins a new series, so a stream holding a run twice parses as two
// runs. A line that is neither a meta line nor a well-formed interval
// is an error (with its line number), so corrupted streams fail loudly
// — cmd/care-report and the CI smoke job rely on that.
func ReadJSONL(r io.Reader) ([]Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		out []Series
		// latest maps a tag to the index in out of its latest series,
		// hasMeta to whether that series has had its meta line.
		latest  = map[string]int{}
		hasMeta = map[string]bool{}
		line    int
	)
	get := func(tag string) *Series {
		i, ok := latest[tag]
		if !ok {
			i = len(out)
			out = append(out, Series{Meta: Meta{Tag: tag}})
			latest[tag] = i
		}
		return &out[i]
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ml metaLine
		if err := json.Unmarshal([]byte(text), &ml); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		if ml.Meta != nil {
			tag := ml.Meta.Tag
			if hasMeta[tag] {
				delete(latest, tag)
			}
			hasMeta[tag] = true
			get(tag).Meta = *ml.Meta
			continue
		}
		var iv Interval
		if err := json.Unmarshal([]byte(text), &iv); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		if iv.End <= iv.Start || len(iv.Cores) == 0 {
			return nil, fmt.Errorf("telemetry: line %d: not a telemetry interval (end %d <= start %d or no cores)",
				line, iv.End, iv.Start)
		}
		s := get(iv.Tag)
		s.Intervals = append(s.Intervals, iv)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: read: %w", err)
	}
	return out, nil
}

// Measured filters out warmup intervals.
func Measured(ivs []Interval) []Interval {
	out := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Warmup {
			out = append(out, iv)
		}
	}
	return out
}

// Phase is a run of consecutive intervals with similar aggregate IPC —
// the program-phase slicing cmd/care-report renders. Boundaries are
// detected greedily: an interval whose IPC deviates from the running
// phase mean by more than the tolerance opens a new phase.
type Phase struct {
	// First and Last are the inclusive interval indices (positions in
	// the segmented slice, not Interval.Index).
	First, Last int
	// StartCycle and EndCycle bound the phase.
	StartCycle, EndCycle uint64
	// Instructions retired during the phase (all cores).
	Instructions uint64
	// IPC, MPKI, MissRate, PureMissRate, MeanPMC aggregate the phase.
	IPC, MPKI, MissRate, PureMissRate, MeanPMC float64
	// PMCLow and PMCHigh are the DTRM thresholds at the phase's end
	// (zero unless the series has CARE samples).
	PMCLow, PMCHigh float64
	// Epochs is the number of DTRM periods completed during the phase.
	Epochs uint64
	// HasCARE reports whether the CARE fields are meaningful.
	HasCARE bool
}

// Intervals returns the number of intervals in the phase.
func (p Phase) Intervals() int { return p.Last - p.First + 1 }

// Cycles returns the phase length.
func (p Phase) Cycles() uint64 { return p.EndCycle - p.StartCycle }

// DefaultPhaseTolerance is the relative IPC deviation that opens a new
// phase in SegmentPhases.
const DefaultPhaseTolerance = 0.15

// phaseAcc accumulates raw counters for one phase.
type phaseAcc struct {
	first, last          int
	start, end           uint64
	instr, cycles        uint64
	llcAcc, llcMiss      uint64
	llcPure, coreMiss    uint64
	pmcSum               float64
	low, high            float64
	epochStart, epochEnd uint64
	hasCARE              bool
}

func (a *phaseAcc) add(i int, iv *Interval) {
	if a.cycles == 0 {
		a.first = i
		a.start = iv.Start
	}
	a.last = i
	a.end = iv.End
	a.instr += iv.Instructions()
	a.cycles += iv.Cycles()
	a.llcAcc += iv.LLC.Accesses
	a.llcMiss += iv.LLC.Misses
	a.llcPure += iv.LLC.PureMisses
	a.pmcSum += iv.LLC.MeanPMC * float64(iv.LLC.Misses)
	for c := range iv.Cores {
		a.coreMiss += iv.Cores[c].LLCMisses
	}
	if iv.CARE != nil {
		a.hasCARE = true
		a.low, a.high = iv.CARE.PMCLow, iv.CARE.PMCHigh
		a.epochEnd = iv.CARE.Epoch
	}
}

func (a *phaseAcc) ipc() float64 {
	if a.cycles == 0 {
		return 0
	}
	return float64(a.instr) / float64(a.cycles)
}

func (a *phaseAcc) phase() Phase {
	p := Phase{
		First: a.first, Last: a.last,
		StartCycle: a.start, EndCycle: a.end,
		Instructions: a.instr,
		IPC:          a.ipc(),
		HasCARE:      a.hasCARE,
		PMCLow:       a.low, PMCHigh: a.high,
	}
	if a.instr > 0 {
		p.MPKI = float64(a.coreMiss) / float64(a.instr) * 1000
	}
	if a.llcAcc > 0 {
		p.MissRate = float64(a.llcMiss) / float64(a.llcAcc)
		p.PureMissRate = float64(a.llcPure) / float64(a.llcAcc)
	}
	if a.llcMiss > 0 {
		p.MeanPMC = a.pmcSum / float64(a.llcMiss)
	}
	if a.epochEnd > a.epochStart {
		p.Epochs = a.epochEnd - a.epochStart
	}
	return p
}

// SegmentPhases slices a series into program phases by aggregate IPC.
// tol is the relative deviation opening a new phase (<= 0 uses
// DefaultPhaseTolerance). Warmup intervals should be filtered out
// first (see Measured).
func SegmentPhases(ivs []Interval, tol float64) []Phase {
	if tol <= 0 {
		tol = DefaultPhaseTolerance
	}
	var (
		phases    []Phase
		acc       phaseAcc
		prevEpoch uint64
	)
	for i := range ivs {
		iv := &ivs[i]
		if acc.cycles > 0 {
			mean := acc.ipc()
			ipc := iv.IPC()
			if dev := ipc - mean; mean > 0 && (dev > tol*mean || -dev > tol*mean) {
				phases = append(phases, acc.phase())
				acc = phaseAcc{}
			}
		}
		if acc.cycles == 0 {
			acc.epochStart = prevEpoch
		}
		acc.add(i, iv)
		if iv.CARE != nil {
			prevEpoch = iv.CARE.Epoch
		}
	}
	if acc.cycles > 0 {
		phases = append(phases, acc.phase())
	}
	return phases
}
