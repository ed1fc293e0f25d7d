package cache

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"care/internal/checkpoint"
	"care/internal/mem"
)

// The parking tests use newTestCache's 2-cycle tag lookup with a
// 2-entry MSHR file and a lower level that answers after 10 cycles,
// ticked by run in the simulator's order (cache, then lower level).

// parkedL1 returns a cache whose queue head (block 0x3000, set 0) is
// parked behind two misses filling the MSHR file: the misses are
// looked up at cycle 2 and answered at cycle 12; the head parks at
// cycle 2. The cache has been ticked through cycle 9.
func parkedL1(t *testing.T, done *[3]uint64) (*Cache, *fixedLatencyMemory) {
	t.Helper()
	c, lower := newTestCache(t, 16, 4, 2, 10)
	for i, a := range []mem.Addr{0x1000, 0x2000, 0x3000} {
		i := i
		c.Access(load(a, func(cy uint64) { done[i] = cy }), 0)
	}
	run(c, lower, 0, 9)
	if !c.parked {
		t.Fatal("head behind a full MSHR file did not park")
	}
	if got := c.Stats().MSHRStallCycles; got != 8 {
		t.Fatalf("MSHRStallCycles = %d after cycles 2..9, want 8", got)
	}
	if got := c.NextEvent(); got != math.MaxUint64 {
		t.Fatalf("NextEvent = %d on a parked queue, want none", got)
	}
	return c, lower
}

// TestParkedHeadServedCycleAfterRelease: the parked head is looked up
// again on exactly the cycle after an MSHR entry frees, and every
// blocked cycle in between counts as a stall.
func TestParkedHeadServedCycleAfterRelease(t *testing.T) {
	var done [3]uint64
	c, lower := parkedL1(t, &done)
	// Cycle 12: the cache ticks (still parked, stall 11), then the
	// lower level answers both misses, releasing both entries.
	run(c, lower, 10, 12)
	if done[0] != 12 || done[1] != 12 {
		t.Fatalf("misses answered at %d/%d, want 12", done[0], done[1])
	}
	if c.parked {
		t.Fatal("releasing an MSHR entry must un-park the queue")
	}
	if got := c.NextEvent(); got != 2 {
		t.Fatalf("NextEvent = %d after the release, want the head's ready cycle 2", got)
	}
	if got := c.Stats().MSHRStallCycles; got != 11 {
		t.Fatalf("MSHRStallCycles = %d, want 11 (cycles 2..12)", got)
	}
	// Cycle 13: the head allocates and goes to the lower level, which
	// answers it at 23.
	run(c, lower, 13, 13)
	if c.QueueLen() != 0 || c.MSHRFile().Len() != 1 {
		t.Fatalf("queue=%d mshr=%d after cycle 13, want the head allocated", c.QueueLen(), c.MSHRFile().Len())
	}
	run(c, lower, 14, 30)
	if done[2] != 23 {
		t.Fatalf("parked head answered at %d, want 23 (looked up at 13 + 10)", done[2])
	}
	if got := c.Stats().MSHRStallCycles; got != 11 {
		t.Fatalf("MSHRStallCycles = %d after the drain, want 11", got)
	}
}

// TestWritebackAndPrefetchHeadsNeverPark: with the MSHR file full, a
// writeback head is forwarded and a prefetch head (past pfDropAt) is
// dropped; neither blocks the queue.
func TestWritebackAndPrefetchHeadsNeverPark(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 2, 10)
	c.Access(load(0x1000, nil), 0)
	c.Access(load(0x2000, nil), 0)
	c.Access(&mem.Request{Addr: 0x5000, Kind: mem.Writeback}, 1)
	c.Access(&mem.Request{Addr: 0x6000, Kind: mem.Prefetch}, 2)
	run(c, lower, 0, 8)
	st := c.Stats()
	if c.parked || st.MSHRStallCycles != 0 {
		t.Fatalf("parked=%v stalls=%d, want neither head to block", c.parked, st.MSHRStallCycles)
	}
	if st.WritebackAccesses != 1 || st.WritebacksIssued != 1 {
		t.Fatalf("writeback accesses=%d issued=%d, want it forwarded", st.WritebackAccesses, st.WritebacksIssued)
	}
	if st.PrefetchesDropped != 1 {
		t.Fatalf("PrefetchesDropped = %d, want the prefetch dropped", st.PrefetchesDropped)
	}
	if c.QueueLen() != 0 {
		t.Fatalf("queue = %d, want empty", c.QueueLen())
	}
}

// TestUnparkPaths: every path that can change the parked lookup's
// outcome un-parks the queue, and the retried lookup re-parks with
// the stall count a per-cycle retry would have produced. The same
// holds for a cache ticked only when Due, as the simulator does, so
// that it is not ticked while parked: the un-park counts the stalls it
// was not ticked for.
func TestUnparkPaths(t *testing.T) {
	unparks := []struct {
		name string
		hit  func(c *Cache, cycle uint64)
	}{
		// FlipTagBit only flips set-index bits, so it cannot turn the
		// parked miss into a hit; it must still un-park, like every
		// tag write.
		{"FlipTagBit", func(c *Cache, cycle uint64) {
			set, way, ok := c.SomeValidBlock()
			if !ok || !c.FlipTagBit(set, way, 0, cycle) {
				panic("no block to flip")
			}
		}},
		{"SaturateMSHR", func(c *Cache, cycle uint64) { c.SaturateMSHR(cycle) }},
		{"Restore", func(c *Cache, _ uint64) {
			fresh, _ := newTestCache(t, 16, 4, 2, 10)
			data, err := checkpoint.Encode(fresh.Checkpoint)
			if err == nil {
				err = checkpoint.Decode(data, c.Checkpoint)
			}
			if err != nil {
				panic(err)
			}
		}},
	}
	// parked returns a cache with block 0x7000 resident (looked up at
	// 2, filled at 12) and a head parked at 17 behind two misses that
	// the lower level answers at 27, ticked through 17.
	parked := func(t *testing.T) (*Cache, *fixedLatencyMemory) {
		c, lower := newTestCache(t, 16, 4, 2, 10)
		c.Access(load(0x7000, nil), 0)
		run(c, lower, 0, 14)
		for _, a := range []mem.Addr{0x1000, 0x2000, 0x3000} {
			c.Access(load(a, nil), 15)
		}
		run(c, lower, 15, 17)
		if !c.parked {
			t.Fatal("setup: head did not park")
		}
		return c, lower
	}
	for _, tc := range unparks {
		t.Run(tc.name, func(t *testing.T) {
			c, lower := parked(t)
			run(c, lower, 18, 20)
			tc.hit(c, 21)
			if c.parked {
				t.Fatalf("%s left the queue parked", tc.name)
			}
			if got := c.NextEvent(); got != 17 {
				t.Fatalf("NextEvent = %d after un-parking, want the head's ready cycle 17", got)
			}
			// The next Tick retries the lookup; the file is still full,
			// so it counts one stall and parks again.
			before := c.Stats().MSHRStallCycles
			c.Tick(21)
			if got := c.Stats().MSHRStallCycles; got != before+1 {
				t.Fatalf("MSHRStallCycles = %d after the retry, want %d", got, before+1)
			}
			if !c.parked {
				t.Fatal("a retry that fails again must re-park")
			}
		})
	}
	// The fill path: the lower level answers both misses at 27, after
	// the cache's own Tick of that cycle.
	unparks = append(unparks, struct {
		name string
		hit  func(c *Cache, cycle uint64)
	}{"fill", nil})
	for _, tc := range unparks {
		t.Run("not ticked/"+tc.name, func(t *testing.T) {
			ticked, tl := parked(t)
			lazy, ll := parked(t)
			skipped := 0
			for cy := uint64(18); cy <= 30; cy++ {
				if tc.hit != nil && cy == 24 {
					tc.hit(ticked, cy)
					tc.hit(lazy, cy)
				}
				ticked.Tick(cy)
				if lazy.Due(cy) {
					lazy.Tick(cy)
				} else {
					skipped++
				}
				tl.Tick(cy)
				ll.Tick(cy)
			}
			if skipped == 0 {
				t.Fatal("the lazy cache was ticked every cycle; the check is vacuous")
			}
			ticked.SkipCycles(31)
			lazy.SkipCycles(31)
			if !reflect.DeepEqual(*ticked.Stats(), *lazy.Stats()) {
				t.Fatalf("stats diverge:\nticked: %+v\nlazy:   %+v", *ticked.Stats(), *lazy.Stats())
			}
			if ticked.parked != lazy.parked || ticked.QueueLen() != lazy.QueueLen() ||
				ticked.MSHRFile().Len() != lazy.MSHRFile().Len() {
				t.Fatalf("state diverges: parked %v/%v, queue %d/%d, MSHR %d/%d",
					ticked.parked, lazy.parked, ticked.QueueLen(), lazy.QueueLen(),
					ticked.MSHRFile().Len(), lazy.MSHRFile().Len())
			}
		})
	}
}

// badVictim is a policy whose victim way is out of range, so a fill
// into a full set installs nothing.
type badVictim struct{ testLRU }

func (*badVictim) Victim(int, AccessInfo) int { return 99 }

// TestReleaseWithoutInstallUnparks: a fill that releases its MSHR
// entry but installs nothing (the victim choice failed) still
// un-parks the queue, so the blocked head is looked up on the next
// cycle.
func TestReleaseWithoutInstallUnparks(t *testing.T) {
	c := New(Params{Name: "L1D", Sets: 1, Ways: 1, Latency: 4, MSHREntries: 1, Cores: 1}, &badVictim{})
	lower := &fixedLatencyMemory{latency: 10}
	c.SetLower(lower)
	// Fill the only way (looked up at 4, installed at 14), then park
	// 0x2000 behind 0x1000's miss (both looked up at 19).
	c.Access(load(0x0000, nil), 0)
	run(c, lower, 0, 14)
	c.Access(load(0x1000, nil), 15)
	c.Access(load(0x2000, nil), 15)
	run(c, lower, 15, 28)
	if !c.parked {
		t.Fatal("setup: head did not park")
	}
	// Cycle 29: 0x1000's fill finds no valid victim and installs
	// nothing, but its entry is released.
	run(c, lower, 29, 29)
	if !errors.Is(c.Err(), ErrBadVictim) || c.MSHRFile().Len() != 0 {
		t.Fatalf("setup: err=%v mshr=%d, want a failed install and a released entry", c.Err(), c.MSHRFile().Len())
	}
	if c.parked {
		t.Fatal("releasing an MSHR entry without installing must still un-park the queue")
	}
	run(c, lower, 30, 30)
	if c.QueueLen() != 0 || c.MSHRFile().Len() != 1 {
		t.Fatalf("queue=%d mshr=%d after cycle 30, want the head allocated", c.QueueLen(), c.MSHRFile().Len())
	}
}

// cycleLog is a tracker that records the cycles it is ticked at.
type cycleLog struct{ cycles []uint64 }

func (l *cycleLog) OnAccessStart(int, mem.Kind, uint64) {}
func (l *cycleLog) Tick(cycle uint64, _ *MSHR)          { l.cycles = append(l.cycles, cycle) }
func (l *cycleLog) OnMissComplete(*MSHREntry, uint64)   {}

// eventLog is a BulkTracker that records every call it gets.
type eventLog struct{ calls []string }

func (l *eventLog) add(format string, args ...any) {
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
}
func (l *eventLog) CatchUp(core int, clock uint64, _ *MSHR) {
	l.add("catch up core %d to %d", core, clock)
}
func (l *eventLog) OnAccessStart(core int, _ mem.Kind, cycle uint64) {
	l.add("access core %d at %d", core, cycle)
}
func (l *eventLog) OnMissAlloc(e *MSHREntry) { l.add("allocate %#x", e.Block) }
func (l *eventLog) OnMissComplete(e *MSHREntry, cycle uint64) {
	l.add("complete %#x at %d", e.Block, cycle)
}
func (l *eventLog) Sync(clock uint64, _ *MSHR) { l.add("sync to %d", clock) }
func (l *eventLog) SetClock(clock uint64)      { l.add("clock %d", clock) }

// TestSkipCyclesMatchesTicks: skipping a window that is dead for the
// queue counts a parked queue's stalls exactly as per-cycle Ticks
// would and calls no tracker: ticked trackers see only stepped cycles,
// and bulk trackers get no call during ticks or skips alike. Both
// leave the clock at the window's end, so the next event catches a
// bulk tracker's core up to the same cycle.
func TestSkipCyclesMatchesTicks(t *testing.T) {
	var doneA, doneB [3]uint64
	a, _ := parkedL1(t, &doneA)
	b, _ := parkedL1(t, &doneB)
	la, lb := &cycleLog{}, &cycleLog{}
	ba, bb := &eventLog{}, &eventLog{}
	a.AddTracker(la)
	a.AddBulkTracker(ba)
	b.AddTracker(lb)
	b.AddBulkTracker(bb)
	for cy := uint64(10); cy < 14; cy++ {
		a.Tick(cy)
	}
	b.SkipCycles(14)
	if want := []uint64{10, 11, 12, 13}; !reflect.DeepEqual(la.cycles, want) || len(lb.cycles) != 0 {
		t.Fatalf("tracker ticks: stepped %v (want %v), skipped %v (want none)", la.cycles, want, lb.cycles)
	}
	if len(ba.calls) != 0 || len(bb.calls) != 0 {
		t.Fatalf("bulk trackers called while nothing changed: stepped %q, skipped %q", ba.calls, bb.calls)
	}
	if !reflect.DeepEqual(*a.Stats(), *b.Stats()) {
		t.Fatalf("stats diverge:\nticked:  %+v\nskipped: %+v", *a.Stats(), *b.Stats())
	}
	for _, c := range []*Cache{a, b} {
		c.Access(&mem.Request{Addr: 0x5000, Core: 1, Kind: mem.Load}, 14)
		c.SyncTrackers()
	}
	want := []string{"catch up core 1 to 14", "access core 1 at 14", "sync to 14"}
	if !reflect.DeepEqual(ba.calls, want) || !reflect.DeepEqual(bb.calls, want) {
		t.Fatalf("after the window: stepped %q, skipped %q, want %q", ba.calls, bb.calls, want)
	}
	// An idle, un-parked cache counts no stalls over a skip.
	idle, _ := newTestCache(t, 16, 4, 2, 10)
	idle.SkipCycles(100)
	if got := idle.Stats().MSHRStallCycles; got != 0 {
		t.Fatalf("idle cache counted %d stall cycles", got)
	}
}

// TestBulkTrackerCaughtUpAtEvents: a bulk tracker is called only at the
// events that change what a core sees — an access starting, a miss
// allocated (also by SaturateMSHR, on core 0), a miss completed — and
// each time the event's core is caught up to the clock first: the
// event's cycle before the cache's Tick of that cycle, the next cycle
// after it.
func TestBulkTrackerCaughtUpAtEvents(t *testing.T) {
	c, lower := newTestCache(t, 16, 4, 2, 10)
	log := &eventLog{}
	c.AddBulkTracker(log)
	c.Access(&mem.Request{Addr: 0x1000, Core: 1, Kind: mem.Load}, 0)
	// Looked up during Tick(2), answered during the lower level's
	// tick of cycle 12, after the cache's.
	run(c, lower, 0, 12)
	c.SaturateMSHR(13)
	c.SetClock(40)
	want := []string{
		"catch up core 1 to 0", "access core 1 at 0",
		"catch up core 1 to 3", "allocate 0x40",
		"catch up core 1 to 13", "complete 0x40 at 12",
		"catch up core 0 to 13", "allocate 0xfa0000000000",
		"catch up core 0 to 13", "allocate 0xfa0000000001",
		"clock 40",
	}
	if !reflect.DeepEqual(log.calls, want) {
		t.Fatalf("bulk tracker calls:\n got %q\nwant %q", log.calls, want)
	}
}

// TestParkingMatchesRetryEveryCycle is the differential check: a mixed
// load/store/prefetch/writeback stream through a small MSHR file gives
// the same completions and counters whether the blocked head parks or
// is looked up again every cycle.
func TestParkingMatchesRetryEveryCycle(t *testing.T) {
	run := func(retry bool) ([]uint64, Stats) {
		c := New(Params{Name: "L1D", Sets: 8, Ways: 2, Latency: 3, MSHREntries: 3, Cores: 1}, &testLRU{})
		lower := &fixedLatencyMemory{latency: 17}
		c.SetLower(lower)
		var done []uint64
		rng := uint64(0x9e3779b97f4a7c15)
		for cy := uint64(0); cy < 4000; cy++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if cy < 3000 && rng%3 == 0 {
				addr := mem.Addr((rng >> 8) % 96 * mem.BlockSize)
				req := &mem.Request{Addr: addr, Kind: mem.Kind(rng >> 40 % 4)}
				if req.Kind == mem.Load {
					req.Owner = mem.CompleteFunc(func(_ uint32, at uint64) { done = append(done, at) })
				}
				c.Access(req, cy)
			}
			if retry {
				c.parked = false
			}
			c.Tick(cy)
			lower.Tick(cy)
		}
		return done, *c.Stats()
	}
	parkDone, parkStats := run(false)
	retryDone, retryStats := run(true)
	if parkStats.MSHRStallCycles == 0 {
		t.Fatal("the stream never blocked on the MSHR file; the check is vacuous")
	}
	if !reflect.DeepEqual(parkDone, retryDone) {
		t.Fatalf("completions diverge: %d parked vs %d retried", len(parkDone), len(retryDone))
	}
	if !reflect.DeepEqual(parkStats, retryStats) {
		t.Fatalf("stats diverge:\nparked:  %+v\nretried: %+v", parkStats, retryStats)
	}
}

// TestWakeStoredAtEveryMutation: after each path that can move
// NextEvent, the stored wake equals the value the queue and park state
// give, and a shared bound that held before the path still holds.
func TestWakeStoredAtEveryMutation(t *testing.T) {
	// queued returns a cache with loads of the given blocks accessed
	// at cycle 0 (ready at 2).
	queued := func(t *testing.T, addrs ...mem.Addr) (*Cache, *fixedLatencyMemory) {
		c, lower := newTestCache(t, 16, 4, 2, 10)
		for _, a := range addrs {
			c.Access(load(a, nil), 0)
		}
		return c, lower
	}
	// parked returns a cache with block 0x7000 resident and a head
	// (ready at 17) parked behind two misses the lower level answers
	// at 27, ticked through 20.
	parked := func(t *testing.T) (*Cache, *fixedLatencyMemory) {
		c, lower := queued(t, 0x7000)
		run(c, lower, 0, 14)
		for _, a := range []mem.Addr{0x1000, 0x2000, 0x3000} {
			c.Access(load(a, nil), 15)
		}
		run(c, lower, 15, 20)
		if !c.parked {
			t.Fatal("setup: head did not park")
		}
		return c, lower
	}
	cases := []struct {
		name   string
		setup  func(t *testing.T) (*Cache, *fixedLatencyMemory)
		mutate func(t *testing.T, c *Cache, lower *fixedLatencyMemory)
		want   uint64
	}{
		{"Access/empty queue", func(t *testing.T) (*Cache, *fixedLatencyMemory) { return queued(t) },
			func(_ *testing.T, c *Cache, _ *fixedLatencyMemory) { c.Access(load(0x1000, nil), 5) }, 7},
		{"Access/non-empty queue", func(t *testing.T) (*Cache, *fixedLatencyMemory) { return queued(t, 0x1000) },
			func(_ *testing.T, c *Cache, _ *fixedLatencyMemory) { c.Access(load(0x2000, nil), 1) }, 2},
		{"Tick/drains the head", func(t *testing.T) (*Cache, *fixedLatencyMemory) {
			c, lower := queued(t, 0x1000)
			c.Access(load(0x2000, nil), 3)
			return c, lower
		}, func(_ *testing.T, c *Cache, _ *fixedLatencyMemory) { c.Tick(2) }, 5},
		{"Tick/drains the queue", func(t *testing.T) (*Cache, *fixedLatencyMemory) { return queued(t, 0x1000) },
			func(_ *testing.T, c *Cache, _ *fixedLatencyMemory) { c.Tick(2) }, math.MaxUint64},
		{"Tick/parks", func(t *testing.T) (*Cache, *fixedLatencyMemory) { return queued(t, 0x1000, 0x2000, 0x3000) },
			func(t *testing.T, c *Cache, _ *fixedLatencyMemory) {
				c.Tick(2)
				if !c.parked {
					t.Fatal("the third miss did not park")
				}
			}, math.MaxUint64},
		{"Complete/un-parks", parked,
			func(_ *testing.T, c *Cache, lower *fixedLatencyMemory) { run(c, lower, 21, 27) }, 17},
		{"SaturateMSHR", parked,
			func(_ *testing.T, c *Cache, _ *fixedLatencyMemory) { c.SaturateMSHR(21) }, 17},
		{"FlipTagBit", parked, func(t *testing.T, c *Cache, _ *fixedLatencyMemory) {
			set, way, ok := c.SomeValidBlock()
			if !ok || !c.FlipTagBit(set, way, 0, 21) {
				t.Fatal("no block to flip")
			}
		}, 17},
		{"restore", parked, func(t *testing.T, c *Cache, _ *fixedLatencyMemory) {
			fresh, _ := newTestCache(t, 16, 4, 2, 10)
			data, err := checkpoint.Encode(fresh.Checkpoint)
			if err == nil {
				err = checkpoint.Decode(data, c.Checkpoint)
			}
			if err != nil {
				t.Fatal(err)
			}
		}, 17},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, lower := tc.setup(t)
			// Attach the bound at the setup's wake, without the
			// recompute SetWakeBound does, so a stale wake shows.
			bound := c.NextEvent()
			c.bound = &bound
			tc.mutate(t, c, lower)
			if got := c.NextEvent(); got != c.headWake() || got != tc.want {
				t.Fatalf("NextEvent = %d, queue and park state give %d, want %d", got, c.headWake(), tc.want)
			}
			if bound > c.NextEvent() {
				t.Fatalf("bound %d left above the wake %d", bound, c.NextEvent())
			}
			if err := c.CheckWake(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
