// Package dram models the main memory behind the LLC: channels,
// ranks, banks, open-row policy, and the tRP/tRCD/tCAS timing of the
// paper's configuration (Table VII). The model is deliberately simple
// — FCFS scheduling with per-bank row state and a shared data bus per
// channel — but it produces the property the paper's evaluation
// depends on: variable, contention-sensitive miss latencies that
// create miss-miss and hit-miss overlapping at the LLC.
package dram

import (
	"fmt"
	"math"

	"care/internal/mem"
	"care/internal/ring"
)

// Params configures the memory system. All timings are in CPU cycles.
type Params struct {
	// Channels is the number of independent channels (1 single-core,
	// 2 multi-core in the paper).
	Channels int
	// BanksPerChannel is the number of banks behind each channel.
	BanksPerChannel int
	// RowBytes is the DRAM row (page) size per bank.
	RowBytes int
	// TRP, TRCD, TCAS are precharge, activate, and CAS latencies.
	TRP, TRCD, TCAS uint64
	// BurstCycles is the data-bus occupancy of one 64-byte block.
	BurstCycles uint64
}

// DefaultParams returns the paper's DRAM configuration converted to
// 4 GHz CPU cycles: tRP=15ns=60, tRCD=15ns=60, tCAS=12.5ns=50; a
// 64-bit 2400MT/s channel moves 64B in ~13 cycles.
func DefaultParams(channels int) Params {
	return Params{
		Channels:        channels,
		BanksPerChannel: 16,
		RowBytes:        8192,
		TRP:             60,
		TRCD:            60,
		TCAS:            50,
		BurstCycles:     13,
	}
}

// Stats counts memory traffic.
type Stats struct {
	Reads, Writes      uint64
	RowHits, RowMisses uint64
	TotalReadLatency   uint64
	MaxQueued          int
}

// MeanReadLatency returns the average read service latency in cycles.
func (s *Stats) MeanReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.TotalReadLatency) / float64(s.Reads)
}

type bank struct {
	openRow   uint64
	hasOpen   bool
	busyUntil uint64
}

type channel struct {
	banks    []bank
	busUntil uint64
	// reads are the channel's reads in flight, in issue order, which
	// is also their completion order: service starts each burst at or
	// after busUntil and moves busUntil past it.
	reads ring.Ring[pending]
}

type pending struct {
	req   *mem.Request
	ready uint64
	// seq is the read's issue number across all channels; Tick
	// answers the reads ready in a cycle in issue order.
	seq uint64
}

// writeQueueHigh is the buffered-write count that forces drain mode
// even while reads are pending (per controller).
const writeQueueHigh = 32

// DRAM is the memory controller + devices. It implements cache.Level.
type DRAM struct {
	Params
	channels []channel
	// reads counts the reads in flight on every channel, and issued
	// numbers them.
	reads  int
	issued uint64
	// writeQ buffers posted writes; the controller drains them
	// opportunistically (when no reads are in flight) or in bursts
	// once the queue passes the high watermark, so writeback-heavy
	// policies do not serialise demand reads behind writes. The queue
	// is writeQ[wqHead:]; draining advances wqHead and the backing
	// array is reused once the queue empties, so the steady state
	// allocates nothing.
	writeQ []mem.Addr
	wqHead int
	// minReady caches the earliest completion among the channels'
	// oldest reads so Tick can return on idle cycles without looking
	// at them.
	minReady uint64
	stats    Stats

	// Precomputed address-routing masks and shifts, valid when
	// Channels, BanksPerChannel, and the blocks-per-row count are all
	// powers of two (the paper's configuration); route then replaces
	// its divisions with masking.
	routePow2 bool
	chanMask  uint64
	chanShift uint
	bankMask  uint64
	bankShift uint
	rowShift  uint
}

// New builds a DRAM model.
func New(p Params) *DRAM {
	if p.Channels <= 0 || p.BanksPerChannel <= 0 || p.RowBytes <= 0 {
		panic(fmt.Sprintf("dram: invalid params %+v", p))
	}
	d := &DRAM{Params: p, channels: make([]channel, p.Channels)}
	for i := range d.channels {
		d.channels[i].banks = make([]bank, p.BanksPerChannel)
	}
	rowBlocks := p.RowBytes / mem.BlockSize
	if isPow2(p.Channels) && isPow2(p.BanksPerChannel) && rowBlocks > 0 && isPow2(rowBlocks) {
		d.routePow2 = true
		d.chanMask = uint64(p.Channels - 1)
		d.chanShift = log2(p.Channels)
		d.bankMask = uint64(p.BanksPerChannel - 1)
		d.bankShift = log2(p.BanksPerChannel)
		d.rowShift = log2(rowBlocks)
	}
	return d
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) uint {
	var s uint
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// Stats returns the live counters.
func (d *DRAM) Stats() *Stats { return &d.stats }

// ResetStats zeroes the counters (end of warmup) without touching
// bank state or in-flight reads.
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// route maps a block address to (channel, bank, row). Channel and
// bank interleave on block bits so sequential streams spread across
// the system; the row is the address within a bank.
func (d *DRAM) route(a mem.Addr) (ch, bk int, row uint64) {
	blk := a.BlockID()
	if d.routePow2 {
		ch = int(blk & d.chanMask)
		blk >>= d.chanShift
		bk = int(blk & d.bankMask)
		blk >>= d.bankShift
		row = blk >> d.rowShift
		return
	}
	ch = int(blk % uint64(d.Channels))
	blk /= uint64(d.Channels)
	bk = int(blk % uint64(d.BanksPerChannel))
	blk /= uint64(d.BanksPerChannel)
	rowBlocks := uint64(d.RowBytes / mem.BlockSize)
	row = blk / rowBlocks
	return
}

// service runs one block access through the bank/bus timing and
// returns its completion cycle and the channel that serves it.
func (d *DRAM) service(addr mem.Addr, cycle uint64) (uint64, *channel) {
	ch, bk, row := d.route(addr)
	c := &d.channels[ch]
	b := &c.banks[bk]

	start := cycle
	if b.busyUntil > start {
		start = b.busyUntil
	}

	var access uint64
	switch {
	case b.hasOpen && b.openRow == row:
		access = d.TCAS
		d.stats.RowHits++
	case b.hasOpen:
		access = d.TRP + d.TRCD + d.TCAS
		d.stats.RowMisses++
	default:
		access = d.TRCD + d.TCAS
		d.stats.RowMisses++
	}

	dataStart := start + access
	if c.busUntil > dataStart {
		dataStart = c.busUntil
	}
	done := dataStart + d.BurstCycles
	c.busUntil = done
	b.busyUntil = done
	b.openRow = row
	b.hasOpen = true
	return done, c
}

// Access implements the Level interface. Reads respond through the
// request's Done callback after the modelled latency; writes are
// posted into the write queue (they respond immediately and occupy
// device time only when drained).
func (d *DRAM) Access(req *mem.Request, cycle uint64) {
	if req.Kind == mem.Writeback {
		d.stats.Writes++
		d.writeQ = append(d.writeQ, req.Addr)
		req.Respond(cycle)
		req.Release()
		return
	}
	done, c := d.service(req.Addr, cycle)
	d.stats.Reads++
	d.stats.TotalReadLatency += done - cycle
	if d.reads == 0 || done < d.minReady {
		d.minReady = done
	}
	c.reads.PushBack(pending{req: req, ready: done, seq: d.issued})
	d.issued++
	d.reads++
	if d.reads > d.stats.MaxQueued {
		d.stats.MaxQueued = d.reads
	}
}

// drainWrites issues buffered writes when reads are idle or the
// queue is past the high watermark (read-priority scheduling).
func (d *DRAM) drainWrites(cycle uint64) {
	queued := len(d.writeQ) - d.wqHead
	if queued == 0 {
		return
	}
	if d.reads == 0 || queued >= writeQueueHigh {
		// Drain a small burst to amortise row activations.
		n := 2
		if n > queued {
			n = queued
		}
		for i := 0; i < n; i++ {
			d.service(d.writeQ[d.wqHead+i], cycle)
		}
		d.wqHead += n
		if d.wqHead == len(d.writeQ) {
			d.writeQ = d.writeQ[:0]
			d.wqHead = 0
		}
	}
}

// Tick delivers completed reads and drains buffered writes. It must
// be called once per cycle. Each channel's ready reads are a prefix
// of its queue, so Tick answers them by merging the channels' heads
// in issue order.
func (d *DRAM) Tick(cycle uint64) {
	d.drainWrites(cycle)
	if d.reads == 0 || cycle < d.minReady {
		return
	}
	for {
		var first *pending
		var from *channel
		for i := range d.channels {
			c := &d.channels[i]
			if c.reads.Len() == 0 {
				continue
			}
			if h := c.reads.Front(); h.ready <= cycle && (first == nil || h.seq < first.seq) {
				first, from = h, c
			}
		}
		if first == nil {
			break
		}
		p := from.reads.PopFront()
		d.reads--
		p.req.Respond(cycle)
		p.req.Release()
	}
	d.minReady = math.MaxUint64
	for i := range d.channels {
		if c := &d.channels[i]; c.reads.Len() > 0 && c.reads.Front().ready < d.minReady {
			d.minReady = c.reads.Front().ready
		}
	}
}

// NextEvent returns the earliest cycle, from now on, at which Tick
// changes state: now when a write drain is due, else the earliest
// in-flight read completion (which may already have passed), else
// math.MaxUint64. Nothing but Access moves it, so it bounds the
// simulator's fast-forward.
func (d *DRAM) NextEvent(now uint64) uint64 {
	if queued := len(d.writeQ) - d.wqHead; queued > 0 && (d.reads == 0 || queued >= writeQueueHigh) {
		return now
	}
	if d.reads == 0 {
		return math.MaxUint64
	}
	return d.minReady
}

// Drained reports whether no reads are in flight.
func (d *DRAM) Drained() bool { return d.reads == 0 }

// PendingReads returns the number of reads in flight, for the
// watchdog's diagnostic dump.
func (d *DRAM) PendingReads() int { return d.reads }

// QueuedWrites returns the posted-write queue depth.
func (d *DRAM) QueuedWrites() int { return len(d.writeQ) - d.wqHead }

// QueueDepth returns the total controller backlog — reads in flight
// plus buffered writes — the congestion signal the telemetry collector
// samples at interval boundaries.
func (d *DRAM) QueueDepth() int { return d.reads + d.QueuedWrites() }
