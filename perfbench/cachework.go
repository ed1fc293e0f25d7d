package main

// The cache workloads: a ShardedCache with the CARE policy, driven
// read-through by GOMAXPROCS goroutines in a closed loop. Each
// goroutine replays its own pre-generated key stream cyclically, so
// key generation is never timed.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"care/cache"
	"care/internal/synth"
)

// cacheSpec sizes one cache workload. Foreground keys are zipf ranks
// (so low keys are hot), pre-generated per goroutine and replayed
// cyclically. With scanLen > 0, every scanEvery foreground ops are
// followed by a scan of scanLen fresh keys, each used once (the
// scan-flood pattern of synth.ScanFloodTrace, without its wrap-around).
type cacheSpec struct {
	capacity int
	keys     uint64
	skew     float64
	// stream is each goroutine's pre-generated foreground length.
	stream int
	// batch is how many ops each goroutine runs in one timed round.
	batch              int
	scanLen, scanEvery int
}

var (
	cacheZipf = cacheSpec{capacity: 1 << 18, keys: 64 << 18, skew: 1.1, stream: 1 << 20, batch: 1 << 15}
	cacheScan = cacheSpec{capacity: 1 << 18, keys: 8 << 18, skew: 1.2, stream: 1 << 20, batch: 1 << 15,
		scanLen: 1 << 16, scanEvery: 1 << 17}
)

// scanCost is the miss cost of a scanned key: bulk reads are cheap.
const scanCost = 30

// valueOf is the value stored for a key; a hit must return it.
func valueOf(key uint64) uint64 { return key*0x9e3779b97f4a7c15 ^ 0x5bd1e995 }

// streamSeed is goroutine g's stream seed for a run seed.
func streamSeed(seed uint64, g int) uint64 { return seed*64 + uint64(g) + 1 }

// cacheRig is one set-up cache with its streams.
type cacheRig struct {
	spec    cacheSpec
	c       *cache.ShardedCache[uint64, uint64]
	streams []*keyStream
}

// keyStream is one goroutine's key source: a cyclic foreground window
// plus the scan state.
type keyStream struct {
	ops                []synth.ServiceOp
	pos                int
	scanEvery, scanLen int
	sinceScan          int
	scanLeft           int
	scanNext           uint64
}

// next returns the next operation; it never allocates or draws random
// numbers.
func (ks *keyStream) next() synth.ServiceOp {
	if ks.scanLeft > 0 {
		ks.scanLeft--
		ks.scanNext++
		return synth.ServiceOp{Key: ks.scanNext, Cost: scanCost}
	}
	op := ks.ops[ks.pos]
	if ks.pos++; ks.pos == len(ks.ops) {
		ks.pos = 0
	}
	if ks.scanEvery > 0 {
		if ks.sinceScan++; ks.sinceScan == ks.scanEvery {
			ks.sinceScan, ks.scanLeft = 0, ks.scanLen
		}
	}
	return op
}

// buildCache constructs the cache, pre-generates one stream per
// goroutine, preloads the hottest keys and warms the cache with one
// pass over every stream. It returns the set-up time, timed in laps of
// ref (which must be started): one for construction, one per stream,
// one for the preload and one for the warm pass.
func buildCache(s cacheSpec, seed uint64, workers int, ref *hostRef) (*cacheRig, time.Duration, error) {
	t0 := time.Now()
	c, err := cache.NewSharded(cache.Options[uint64, uint64]{Capacity: s.capacity, Policy: "care", Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	rig := &cacheRig{spec: s, c: c, streams: make([]*keyStream, workers)}
	setup := ref.lap(time.Since(t0))
	for g := range rig.streams {
		t0 = time.Now()
		tr := synth.NewZipfTrace(s.keys, s.skew, streamSeed(seed, g))
		ks := &keyStream{ops: make([]synth.ServiceOp, s.stream), scanEvery: s.scanEvery, scanLen: s.scanLen,
			// Scanned keys lie far above the zipf universe, apart per goroutine.
			scanNext: 1<<62 | uint64(g)<<48}
		for i := range ks.ops {
			ks.ops[i] = tr.Next()
		}
		rig.streams[g] = ks
		setup += ref.lap(time.Since(t0))
	}
	// Zipf ranks are keys, so keys 0..capacity-1 are the hottest.
	t0 = time.Now()
	for k := uint64(0); k < uint64(s.capacity); k++ {
		c.PutCost(k, valueOf(k), synth.KeyCost(k))
	}
	setup += ref.lap(time.Since(t0))
	t0 = time.Now()
	var wg sync.WaitGroup
	wrong := make([]int64, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ks := rig.streams[g]
			for i := 0; i < len(ks.ops); i++ {
				wrong[g] += access(c, ks.next())
			}
		}(g)
	}
	wg.Wait()
	setup += ref.lap(time.Since(t0))
	for g, n := range wrong {
		if n > 0 {
			return nil, 0, fmt.Errorf("warm-up goroutine %d read %d wrong values", g, n)
		}
	}
	return rig, setup, nil
}

// access is one read-through operation; it returns 1 when a hit
// returned a wrong value.
func access(c *cache.ShardedCache[uint64, uint64], op synth.ServiceOp) int64 {
	v, ok := c.Get(op.Key)
	if !ok {
		c.PutCost(op.Key, valueOf(op.Key), op.Cost)
		return 0
	}
	if v != valueOf(op.Key) {
		return 1
	}
	return 0
}

// cacheTrace is a traced phase's sampled timings.
type cacheTrace struct {
	getNs, putNs []float64
}

// cacheWorker is one goroutine's share of the closed loop. In traced
// phases every 64th op's Get and PutCost calls are also timed on their
// own.
type cacheWorker struct {
	ops, wrong int64
	tr         cacheTrace
}

// batch runs one batch of ops from ks.
func (w *cacheWorker) batch(c *cache.ShardedCache[uint64, uint64], ks *keyStream, n int, traced bool) {
	// The stream position and the counters live in locals during a
	// batch: the goroutines' state sits in neighbouring memory, and
	// writing it on every op would add false sharing to the contention
	// being measured.
	st := *ks
	var wrong int64
	for i := 0; i < n; i++ {
		op := st.next()
		if traced && i%64 == 0 {
			wrong += w.sampledAccess(c, op)
			continue
		}
		wrong += access(c, op)
	}
	*ks = st
	w.ops += int64(n)
	w.wrong += wrong
}

func (w *cacheWorker) sampledAccess(c *cache.ShardedCache[uint64, uint64], op synth.ServiceOp) int64 {
	t0 := time.Now()
	v, ok := c.Get(op.Key)
	t1 := time.Now()
	w.tr.getNs = append(w.tr.getNs, float64(t1.Sub(t0).Nanoseconds()))
	if !ok {
		c.PutCost(op.Key, valueOf(op.Key), op.Cost)
		w.tr.putNs = append(w.tr.putNs, float64(time.Since(t1).Nanoseconds()))
		return 0
	}
	if v != valueOf(op.Key) {
		return 1
	}
	return 0
}

// cachePhase is the outcome of one timed phase.
type cachePhase struct {
	workers    int
	batch      int
	ops, wrong int64
	// rounds holds each round's ms, normalized to the nominal host
	// (ref.go): the time for every goroutine to run one batch.
	rounds []float64
	refMS  float64 // median host ms of the phase's reference blocks
	before cache.Stats
	after  cache.Stats
	tr     cacheTrace
}

// rate is the phase's throughput across all goroutines, from the median
// round time, which a burst of interference on a shared host moves less
// than a mean.
func (ph *cachePhase) rate() float64 {
	return float64(ph.workers*ph.batch) / (median(ph.rounds) / 1e3)
}

// measureCache runs one timed phase on rig from `workers` goroutines, in
// rounds of one batch per goroutine, with a reference block on as many
// goroutines after each round.
func measureCache(rig *cacheRig, seconds float64, workers int, traced bool) *cachePhase {
	ph := &cachePhase{workers: workers, batch: rig.spec.batch, before: rig.c.Stats()}
	ws := make([]cacheWorker, workers)
	ref := newHostRef(workers)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	ref.start()
	for {
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ws[g].batch(rig.c, rig.streams[g], rig.spec.batch, traced)
			}(g)
		}
		wg.Wait()
		ph.rounds = append(ph.rounds, ms(ref.lap(time.Since(t0))))
		if !time.Now().Before(deadline) {
			break
		}
	}
	ph.after = rig.c.Stats()
	ph.refMS = median(ref.ms)
	for i := range ws {
		ph.ops += ws[i].ops
		ph.wrong += ws[i].wrong
		ph.tr.getNs = append(ph.tr.getNs, ws[i].tr.getNs...)
		ph.tr.putNs = append(ph.tr.putNs, ws[i].tr.putNs...)
	}
	return ph
}

// checkCache is the cache correctness check: every hit returned the
// value stored for its key, and Stats hits + misses = gets.
func checkCache(ph *cachePhase, rep *report) {
	rep.attempted += ph.ops
	rep.failed += ph.wrong
	if ph.wrong > 0 {
		rep.failf("%d hits returned a wrong value", ph.wrong)
	}
	gets := (ph.after.Hits + ph.after.Misses) - (ph.before.Hits + ph.before.Misses)
	if gets != uint64(ph.ops) {
		rep.failf("Stats hits + misses = %d gets, but %d were made", gets, ph.ops)
	}
}

func runCache(s cacheSpec, p params) (*report, error) {
	if p.tiny {
		s.capacity, s.keys, s.stream, s.batch = 1<<12, 64<<12, 1<<14, 1<<10
		if s.scanLen > 0 {
			s.scanLen, s.scanEvery = 1<<10, 1<<11
		}
	}
	workers := runtime.GOMAXPROCS(0)
	rep := newReport()
	ref := newHostRef(workers)
	var rig *cacheRig
	var setups []float64
	for i := 0; i < p.setups(); i++ {
		rig = nil
		runtime.GC() // the previous set-up's cache is garbage; collect it untimed
		ref.start()
		var took time.Duration
		var err error
		if rig, took, err = buildCache(s, p.seed, workers, ref); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	if !p.traced {
		ph := measureCache(rig, p.seconds, workers, false)
		checkCache(ph, rep)
		rep.metrics["setup_s"] = median(setups)
		rep.metrics["ops_per_s"] = ph.rate()
		rep.metrics["latency_ms_p50"] = quantile(ph.rounds, 0.50)
		rep.metrics["latency_ms_p95"] = quantile(ph.rounds, 0.95)
		rep.metrics["hit_ratio"] = float64(ph.after.Hits-ph.before.Hits) / float64(ph.ops)
		rig.streams = nil // the streams are input, not cache state
		rep.metrics["mem_mb"] = liveHeapMB()
		runtime.KeepAlive(rig)
		return rep, nil
	}

	// Traced: an untraced phase, then a traced one on the same cache,
	// then a single-goroutine replay of goroutine 0's stream for the
	// contention baseline.
	plain := measureCache(rig, p.seconds/2, workers, false)
	checkCache(plain, rep)
	ph := measureCache(rig, p.seconds/2, workers, true)
	checkCache(ph, rep)
	solo := measureCache(rig, p.seconds/4, 1, false)
	checkCache(solo, rep)

	perOpN := float64(workers) / plain.rate()
	perOp1 := 1 / solo.rate()
	m := rep.metrics
	m["cache.get_ns"] = median(ph.tr.getNs)
	m["cache.put_ns"] = median(ph.tr.putNs)
	m["cache.contention_frac"] = 1 - perOp1/perOpN
	m["cache.puts"] = float64((ph.after.Inserts + ph.after.Updates) - (ph.before.Inserts + ph.before.Updates))
	m["cache.evictions"] = float64(ph.after.Evictions - ph.before.Evictions)
	m["tracing.overhead_frac"] = overheadFrac(plain.rate(), ph.rate())
	m["host.ref_ms"] = ph.refMS
	return rep, nil
}
