package main

// Host normalization. On a shared host, neighbours slow throughput-bound
// code by up to 1.6x for seconds to minutes at a time, while a
// latency-bound ALU chain or a pointer chase does not slow at all. The
// benchmark therefore interleaves its timed blocks with a reference
// block: a fixed kernel in this file, independent of the code under
// test, that slows the way the simulator does. Every
// host-time end-to-end metric is scaled by refNominalMS over the time
// the adjacent reference blocks took, so it reads as the time on a host
// where one reference block takes refNominalMS.

import (
	"sync"
	"time"
)

// refNominalMS is the reference block's time on the nominal host, about
// its time on the 2-vCPU Xeon the bounds were measured on.
const refNominalMS = 5.0

// refSteps is the length of one reference block.
const refSteps = 70_000

// refKernel is a small set-associative LRU cache simulator on a
// xorshift address stream: branchy, throughput-bound code with a
// working set that fits a private cache, like the code under test.
type refKernel struct {
	tags []uint64
	age  []uint32
	x    uint64
	hits uint64
}

const refSets, refWays = 1024, 8

func newRefKernel(seed uint64) *refKernel {
	return &refKernel{tags: make([]uint64, refSets*refWays), age: make([]uint32, refSets*refWays), x: seed | 1}
}

func (k *refKernel) run() {
	x := k.x
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a := x % (1 << 16)
		if x&3 == 0 {
			a = x % 4096
		}
		s := int(a) % refSets * refWays
		hit, old, oldAge := -1, s, uint32(0)
		for w := s; w < s+refWays; w++ {
			if k.tags[w] == a+1 {
				hit = w
			}
			k.age[w]++
			if k.age[w] > oldAge {
				old, oldAge = w, k.age[w]
			}
		}
		if hit >= 0 {
			k.hits++
			k.age[hit] = 0
		} else {
			k.tags[old] = a + 1
			k.age[old] = 0
		}
	}
	k.x = x
}

// hostRef runs the reference block on as many goroutines as the
// workload uses, and records how long each block took. Work is timed in
// laps: start runs a block, and each lap runs the next one and
// normalizes the work in between by the mean of the two.
type hostRef struct {
	kernels []*refKernel
	// ms holds every block's host time.
	ms []float64
	// last is the host ms of the latest block.
	last float64
}

func newHostRef(goroutines int) *hostRef {
	h := &hostRef{}
	for g := 0; g < goroutines; g++ {
		h.kernels = append(h.kernels, newRefKernel(uint64(g+1)))
	}
	h.sample() // the first block pays for page faults; start drops it
	return h
}

// sample runs one reference block on every goroutine at once and
// returns its host time in ms.
func (h *hostRef) sample() float64 {
	t0 := time.Now()
	if len(h.kernels) == 1 {
		h.kernels[0].run()
	} else {
		var wg sync.WaitGroup
		for _, k := range h.kernels {
			wg.Add(1)
			go func(k *refKernel) {
				defer wg.Done()
				k.run()
			}(k)
		}
		wg.Wait()
	}
	took := ms(time.Since(t0))
	h.ms = append(h.ms, took)
	h.last = took
	return took
}

// start runs the reference block that opens a series of laps, and
// forgets the blocks run before it.
func (h *hostRef) start() {
	h.ms = h.ms[:0]
	h.sample()
}

// lapRef runs the next reference block and returns the mean host ms of
// it and the previous one: the reference for the work in between.
func (h *hostRef) lapRef() float64 {
	prev := h.last
	return (prev + h.sample()) / 2
}

// lap runs the next reference block and returns d, the host time of
// the work since the previous block, normalized by lapRef.
func (h *hostRef) lap(d time.Duration) time.Duration {
	return normalize(d, h.lapRef())
}

// normalize scales a host duration measured next to reference blocks of
// refMS to the nominal host.
func normalize(d time.Duration, refMS float64) time.Duration {
	return time.Duration(float64(d) * refNominalMS / refMS)
}
