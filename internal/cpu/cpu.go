// Package cpu models the processor cores that drive the memory
// hierarchy. The model approximates the paper's out-of-order cores
// (8-issue, 256-entry ROB, Table VII) at trace granularity:
//
//   - up to IssueWidth instructions dispatch into the ROB per cycle;
//   - non-memory instructions complete in one cycle;
//   - loads complete when the hierarchy answers; independent loads
//     overlap freely (memory-level parallelism bounded by the ROB and
//     the MSHRs), while loads marked DependsPrev wait for the previous
//     memory instruction (pointer chasing);
//   - stores retire through a write buffer (they issue their access
//     but do not block retirement);
//   - retirement is in order, up to IssueWidth per cycle.
//
// This captures exactly the behaviours PMC measures: how much of a
// miss's latency is hidden under other accesses from the same core.
package cpu

import (
	"errors"
	"fmt"
	"io"

	"care/internal/mem"
	"care/internal/ring"
	"care/internal/trace"
)

// Level is the memory-side interface the core issues accesses into
// (satisfied by *cache.Cache; declared here to keep cpu independent
// of the cache implementation).
type Level interface {
	Access(req *mem.Request, cycle uint64)
}

// Params configures a core.
type Params struct {
	// IssueWidth is the dispatch and retire width per cycle.
	IssueWidth int
	// ROBSize is the reorder-buffer capacity in instructions.
	ROBSize int
}

// DefaultParams matches the paper's Table VII (8-issue, 256 ROB).
func DefaultParams() Params { return Params{IssueWidth: 8, ROBSize: 256} }

// Stats aggregates a core's progress.
type Stats struct {
	// Cycles the core has executed.
	Cycles uint64
	// Retired counts retired instructions (memory + non-memory).
	Retired uint64
	// Loads and Stores count retired memory operations.
	Loads, Stores uint64
	// ROBStallCycles counts cycles in which dispatch was blocked by a
	// full ROB.
	ROBStallCycles uint64
}

// MemRefs returns retired memory operations (loads + stores), the
// per-interval memory-intensity signal the telemetry collector
// records.
func (s *Stats) MemRefs() uint64 { return s.Loads + s.Stores }

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// robEntry is one memory instruction in flight.
type robEntry struct {
	isLoad bool
	done   bool
	issued bool
	addr   mem.Addr
	pc     mem.Addr
	// dependent chains pointer-chasing loads: issued when this
	// entry's data arrives.
	dependent *robEntry
	// slot is this entry's stable index in the core's completion
	// table; loads carry it as the response tag.
	slot uint32
}

// robItem groups a run of non-memory instructions with the memory
// instruction that follows them. Batching keeps the per-cycle cost
// independent of the non-memory instruction count.
type robItem struct {
	nonMem int       // completed non-memory instructions before mem
	mem    *robEntry // nil while the tail batch has no mem op yet
}

// Core replays one trace through the memory hierarchy.
type Core struct {
	Params
	id    int
	src   trace.Reader
	l1    Level
	stats Stats

	rob    ring.Ring[robItem] // FIFO of batched instructions
	robLen int                // total instructions resident
	// current record being expanded into instructions.
	rec        trace.Record
	recValid   bool
	nonMemLeft int
	lastMem    *robEntry
	exhausted  bool
	err        error
	nextReqID  uint64
	freeList   []*robEntry
	// slots is the completion table: every robEntry ever allocated,
	// indexed by its slot. Load responses address entries through it.
	slots []*robEntry
	// pool recycles the requests this core issues.
	pool mem.RequestPool
	// frozen stops dispatch (retirement continues) while the system
	// drains to a checkpointable quiescent point.
	frozen bool
	// clock is the first cycle whose counter updates are not yet
	// accounted: Tick(cycle) moves it to cycle+1, SkipCycles to its
	// argument.
	clock uint64
	// awake is false while the core is Stalled, so that ticking it
	// would change nothing but the counters SkipCycles moves in bulk.
	// Tick recomputes it; Complete, SetFetchFrozen and SetClock set it,
	// since each can end a stall. A set flag on a stalled core only
	// costs one Tick.
	awake bool
}

// New creates core id with parameters p, reading src and issuing
// memory accesses into l1.
func New(id int, p Params, src trace.Reader, l1 Level) *Core {
	if p.IssueWidth <= 0 || p.ROBSize <= 0 {
		panic(fmt.Sprintf("cpu: invalid params %+v", p))
	}
	return &Core{Params: p, id: id, src: src, l1: l1, awake: true}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Stats returns the live counters.
func (c *Core) Stats() *Stats { return &c.stats }

// ResetStats zeroes the counters (used at the end of warmup) without
// disturbing architectural state.
func (c *Core) ResetStats() { c.stats = Stats{} }

// Exhausted reports that the trace ended and the pipeline drained.
func (c *Core) Exhausted() bool { return c.exhausted && c.robLen == 0 }

// Err returns the trace error that terminated this core's stream, or
// nil. A core with a non-nil Err stops fetching (its in-flight window
// still drains) so one corrupt trace cannot wedge the whole system;
// the simulator surfaces the error from its run loop.
func (c *Core) Err() error { return c.err }

// Retired returns the retired instruction count.
func (c *Core) Retired() uint64 { return c.stats.Retired }

// ROBHead describes the oldest in-flight memory instruction, for
// forward-progress diagnostics.
type ROBHead struct {
	// Valid is false when the ROB holds no memory instruction.
	Valid bool
	// IsLoad distinguishes loads from stores.
	IsLoad bool
	// Issued reports the access entered the hierarchy; a load that is
	// !Issued is waiting on a pointer-chase producer.
	Issued bool
	// Done reports the data arrived (retirement-ready).
	Done bool
	// PC and Addr identify the instruction.
	PC, Addr mem.Addr
	// NonMemAhead counts completed non-memory instructions retiring
	// before it.
	NonMemAhead int
}

// ROBLen returns the number of instructions resident in the ROB.
func (c *Core) ROBLen() int { return c.robLen }

// Head returns a snapshot of the oldest memory instruction in the
// ROB, used by the watchdog's diagnostic dump to show what each core
// is blocked on.
func (c *Core) Head() ROBHead {
	for i := 0; i < c.rob.Len(); i++ {
		if e := c.rob.At(i).mem; e != nil {
			return ROBHead{
				Valid: true, IsLoad: e.isLoad, Issued: e.issued, Done: e.done,
				PC: e.pc, Addr: e.addr, NonMemAhead: c.rob.Front().nonMem,
			}
		}
	}
	return ROBHead{}
}

// Tick advances the core one cycle: it accounts the cycles since the
// last Tick (SkipCycles), then retires and dispatches, then records
// whether the core is still awake.
func (c *Core) Tick(cycle uint64) {
	c.SkipCycles(cycle)
	c.clock = cycle + 1
	c.stats.Cycles++
	c.retire()
	c.dispatch(cycle)
	c.awake = !c.Stalled()
}

// Awake reports whether the core may have work: it was not Stalled
// when it last ticked, or something has happened to it since. The
// simulator ticks only awake cores; an asleep one stays Stalled until
// a Complete, SetFetchFrozen or SetClock wakes it.
func (c *Core) Awake() bool { return c.awake }

// Stalled reports whether a Tick now would change nothing but the
// cycle and ROB-stall counters: the ROB head cannot retire (it is a
// memory instruction still waiting for data), and dispatch is frozen,
// blocked by a full ROB, or out of trace. Tick evaluates it to set
// Awake.
func (c *Core) Stalled() bool {
	if c.rob.Len() > 0 {
		if it := c.rob.Front(); it.nonMem > 0 || it.mem == nil || it.mem.done {
			return false
		}
	}
	return c.frozen || c.robLen >= c.ROBSize || (c.exhausted && !c.recValid)
}

// SkipCycles accounts for the cycles from the clock up to to, in which
// the core was not ticked and stayed Stalled: it makes the counter
// updates those Ticks would have made and moves the clock to to. Tick
// calls it first; readers of the counters call it with the current
// cycle. Ticking a Stalled core is exactly equivalent to skipping it,
// so a core may be ticked early but never skipped while awake.
func (c *Core) SkipCycles(to uint64) {
	if to <= c.clock {
		return
	}
	k := to - c.clock
	c.clock = to
	c.stats.Cycles += k
	if !c.frozen && c.robLen >= c.ROBSize {
		c.stats.ROBStallCycles += k
	}
}

// SetClock restarts the clock at cycle without accounting anything,
// and wakes the core: a restored system resumes there.
func (c *Core) SetClock(cycle uint64) {
	c.clock = cycle
	c.awake = true
}

// retire removes up to IssueWidth completed instructions in order.
func (c *Core) retire() {
	budget := c.IssueWidth
	for budget > 0 && c.rob.Len() > 0 {
		it := c.rob.Front()
		if it.nonMem > 0 {
			take := it.nonMem
			if take > budget {
				take = budget
			}
			it.nonMem -= take
			c.robLen -= take
			c.stats.Retired += uint64(take)
			budget -= take
			if it.nonMem > 0 {
				return // budget exhausted mid-batch
			}
		}
		if it.mem == nil {
			// Tail batch with no mem op yet: fully retired.
			c.rob.PopFront()
			continue
		}
		if budget == 0 {
			// A non-memory batch that exactly consumed the budget must
			// not sneak its memory instruction into the same cycle:
			// that would retire IssueWidth+1 instructions in one cycle.
			return
		}
		if !it.mem.done {
			return // in-order retirement blocks here
		}
		e := it.mem
		c.rob.PopFront()
		c.robLen--
		budget--
		c.stats.Retired++
		if e.isLoad {
			c.stats.Loads++
		} else {
			c.stats.Stores++
		}
		if c.lastMem == e {
			// A retired producer can no longer gate dependents.
			c.lastMem = nil
		}
		c.recycle(e)
	}
}

// recycle returns a completed entry to the free list. The slot index
// survives the reset so the entry keeps its place in the completion
// table.
func (c *Core) recycle(e *robEntry) {
	*e = robEntry{slot: e.slot}
	c.freeList = append(c.freeList, e)
}

// newEntry allocates or reuses a robEntry, registering new entries in
// the completion table.
func (c *Core) newEntry() *robEntry {
	if n := len(c.freeList); n > 0 {
		e := c.freeList[n-1]
		c.freeList = c.freeList[:n-1]
		return e
	}
	e := &robEntry{slot: uint32(len(c.slots))}
	c.slots = append(c.slots, e)
	return e
}

// nextRecord pulls the next trace record if needed.
func (c *Core) nextRecord() bool {
	if c.recValid || c.exhausted {
		return c.recValid
	}
	rec, err := c.src.Next()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			// Trace corruption terminates this core's stream; the
			// error is held for the simulator to surface rather than
			// killing the whole process.
			c.err = fmt.Errorf("cpu: core %d trace error: %w", c.id, err)
		}
		c.exhausted = true
		return false
	}
	c.rec = rec
	c.recValid = true
	c.nonMemLeft = int(rec.NonMem)
	return true
}

// pushNonMem adds completed non-memory instructions to the tail
// batch.
func (c *Core) pushNonMem(n int) {
	if c.rob.Len() > 0 {
		if last := c.rob.Back(); last.mem == nil {
			last.nonMem += n
			c.robLen += n
			return
		}
	}
	c.rob.PushBack(robItem{nonMem: n})
	c.robLen += n
}

// pushMem closes the tail batch with a memory instruction.
func (c *Core) pushMem(e *robEntry) {
	if c.rob.Len() > 0 {
		if last := c.rob.Back(); last.mem == nil {
			last.mem = e
			c.robLen++
			return
		}
	}
	c.rob.PushBack(robItem{mem: e})
	c.robLen++
}

// dispatch admits up to IssueWidth instructions into the ROB.
func (c *Core) dispatch(cycle uint64) {
	if c.frozen {
		return
	}
	budget := c.IssueWidth
	for budget > 0 {
		if c.robLen >= c.ROBSize {
			c.stats.ROBStallCycles++
			return
		}
		if !c.nextRecord() {
			return
		}
		if c.nonMemLeft > 0 {
			take := c.nonMemLeft
			if take > budget {
				take = budget
			}
			if room := c.ROBSize - c.robLen; take > room {
				take = room
			}
			c.nonMemLeft -= take
			budget -= take
			c.pushNonMem(take)
			continue
		}
		// The memory instruction itself.
		rec := c.rec
		c.recValid = false
		e := c.newEntry()
		e.isLoad = !rec.IsWrite
		e.addr = rec.Addr
		e.pc = rec.PC
		if rec.IsWrite {
			// Stores retire through the write buffer; the access
			// still goes to the hierarchy for coherence/allocation.
			e.done = true
			e.issued = true
			c.issueStore(e, cycle)
		} else if rec.DependsPrev && c.lastMem != nil && !c.lastMem.done {
			// Pointer chase: wait for the producer's data.
			c.lastMem.dependent = e
		} else {
			c.issueLoad(e, cycle)
		}
		c.pushMem(e)
		c.lastMem = e
		budget--
	}
}

// Complete implements mem.Completer: the hierarchy answered the load
// occupying completion-table slot tag. The entry is marked
// retirement-ready and a waiting pointer-chase dependent is issued.
func (c *Core) Complete(tag uint32, cycle uint64) {
	e := c.slots[tag]
	e.done = true
	c.awake = true
	if dep := e.dependent; dep != nil && !dep.issued {
		c.issueLoad(dep, cycle)
	}
}

// issueLoad sends a load into the hierarchy with this core as its
// completer; completion marks the entry done and releases a waiting
// dependent chase.
func (c *Core) issueLoad(e *robEntry, cycle uint64) {
	e.issued = true
	c.nextReqID++
	req := c.pool.Get()
	req.ID = c.nextReqID
	req.Addr = e.addr
	req.PC = e.pc
	req.Core = c.id
	req.Kind = mem.Load
	req.IssueCycle = cycle
	req.Owner = c
	req.Tag = e.slot
	c.l1.Access(req, cycle)
}

// issueStore sends a store into the hierarchy. Stores retire through
// the write buffer, so no completion route is set.
func (c *Core) issueStore(e *robEntry, cycle uint64) {
	c.nextReqID++
	req := c.pool.Get()
	req.ID = c.nextReqID
	req.Addr = e.addr
	req.PC = e.pc
	req.Core = c.id
	req.Kind = mem.Store
	req.IssueCycle = cycle
	c.l1.Access(req, cycle)
}
