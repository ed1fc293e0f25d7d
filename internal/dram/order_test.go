package dram

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"care/internal/mem"
)

// scanDRAM is the reference for the controller's queues: one list of
// every read in flight, scanned in issue order on each Tick that has a
// read due. Bank and bus timing come from its own DRAM's service, so
// a difference from the model under test is in the queues alone.
type scanDRAM struct {
	timing   *DRAM
	inflight []pending
	writeQ   []mem.Addr
}

func (r *scanDRAM) access(req *mem.Request, cycle uint64) {
	st := &r.timing.stats
	if req.Kind == mem.Writeback {
		st.Writes++
		r.writeQ = append(r.writeQ, req.Addr)
		req.Respond(cycle)
		return
	}
	done, _ := r.timing.service(req.Addr, cycle)
	st.Reads++
	st.TotalReadLatency += done - cycle
	r.inflight = append(r.inflight, pending{req: req, ready: done})
	st.MaxQueued = max(st.MaxQueued, len(r.inflight))
}

func (r *scanDRAM) drainDue() bool {
	return len(r.writeQ) > 0 && (len(r.inflight) == 0 || len(r.writeQ) >= writeQueueHigh)
}

func (r *scanDRAM) tick(cycle uint64) {
	if r.drainDue() {
		n := min(2, len(r.writeQ))
		for _, a := range r.writeQ[:n] {
			r.timing.service(a, cycle)
		}
		r.writeQ = r.writeQ[n:]
	}
	rest := r.inflight[:0]
	for _, p := range r.inflight {
		if p.ready <= cycle {
			p.req.Respond(cycle)
		} else {
			rest = append(rest, p)
		}
	}
	r.inflight = rest
}

func (r *scanDRAM) nextEvent(now uint64) uint64 {
	if r.drainDue() {
		return now
	}
	next := uint64(math.MaxUint64)
	for _, p := range r.inflight {
		next = min(next, p.ready)
	}
	return next
}

// answer is one read response: the read's issue number and cycle.
type answer struct{ id, cycle uint64 }

// recorder collects responses in the order they are given.
type recorder struct{ got []answer }

func (r *recorder) Complete(tag uint32, cycle uint64) {
	r.got = append(r.got, answer{uint64(tag), cycle})
}

// FuzzDRAMCompletionOrder drives the controller and the scanning
// reference with the same reads and posted writes over one or two
// channels, ticking both cycle by cycle, and requires the same
// responses in the same order at the same cycles, and equal Stats,
// NextEvent and QueueDepth after every cycle.
//
// The input's first byte picks the channel count; after it, each
// three-byte group is one step: the first byte's low two bits choose
// a read (0, 1), a posted write (2) or a gap of up to 63 idle cycles
// (3, the high bits), and the next two bytes give the block, within a
// few rows so row hits and bank conflicts both occur.
func FuzzDRAMCompletionOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 2, 3, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 1, 64, 0, 0, 0, 1, 2, 16, 0, 0, 7, 1})
	f.Add([]byte{1, 2, 5, 0, 2, 6, 0, 0, 8, 0, 255, 0, 0, 0, 32, 1, 1, 32, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := DefaultParams(1 + int(data[0]&1))
		d := New(p)
		ref := &scanDRAM{timing: New(p)}
		var got, want recorder
		var cycle, issued uint64
		check := func(what string) {
			t.Helper()
			if !slices.Equal(got.got, want.got) {
				t.Fatalf("%s, cycle %d: responses %v, reference %v", what, cycle, got.got, want.got)
			}
			if *d.Stats() != *ref.timing.Stats() {
				t.Fatalf("%s, cycle %d: stats %+v, reference %+v", what, cycle, *d.Stats(), *ref.timing.Stats())
			}
			if a, b := d.NextEvent(cycle+1), ref.nextEvent(cycle+1); a != b {
				t.Fatalf("%s, cycle %d: NextEvent %d, reference %d", what, cycle, a, b)
			}
			if a, b := d.QueueDepth(), len(ref.inflight)+len(ref.writeQ); a != b {
				t.Fatalf("%s, cycle %d: QueueDepth %d, reference %d", what, cycle, a, b)
			}
		}
		step := func() {
			d.Tick(cycle)
			ref.tick(cycle)
			check("tick")
			cycle++
		}
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			block := uint64(ops[1]) | uint64(ops[2]&3)<<8
			addr := mem.Addr(block << mem.BlockBits)
			op := ops[0] & 3
			switch op {
			case 0, 1:
				d.Access(&mem.Request{Addr: addr, Kind: mem.Load, Owner: &got, Tag: uint32(issued)}, cycle)
				ref.access(&mem.Request{Addr: addr, Kind: mem.Load, Owner: &want, Tag: uint32(issued)}, cycle)
				issued++
			case 2:
				d.Access(&mem.Request{Addr: addr, Kind: mem.Writeback}, cycle)
				ref.access(&mem.Request{Addr: addr, Kind: mem.Writeback}, cycle)
			case 3:
				for range ops[0] >> 2 {
					step()
				}
			}
			check(fmt.Sprintf("op %d", op))
		}
		// Every access holds its bank and bus for at most one row
		// cycle, and a write drain issues two per cycle, so both queues
		// empty within a row cycle per access made, plus a drain cycle
		// per write.
		st := d.Stats()
		limit := cycle + (st.Reads+st.Writes+1)*(p.TRP+p.TRCD+p.TCAS+p.BurstCycles) + st.Writes
		for !d.Drained() || d.QueuedWrites() > 0 {
			if cycle > limit {
				t.Fatalf("%d reads and %d writes still queued at cycle %d", d.PendingReads(), d.QueuedWrites(), cycle)
			}
			step()
		}
		if uint64(len(got.got)) != issued {
			t.Fatalf("%d of %d reads answered", len(got.got), issued)
		}
	})
}
