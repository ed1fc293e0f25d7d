// Package mem defines the primitive types shared by every layer of the
// simulated memory system: physical addresses, cache-block geometry,
// access kinds, and the request objects that travel through the
// hierarchy.
//
// The package is deliberately free of simulation logic; it exists so
// that the CPU model, the cache hierarchy, the DRAM model, the
// prefetchers, and the replacement policies can exchange requests
// without import cycles.
package mem

import "fmt"

// BlockBits is log2 of the cache block size. The whole simulator uses
// 64-byte blocks, matching the paper's configuration (Table VII).
const BlockBits = 6

// BlockSize is the cache block size in bytes.
const BlockSize = 1 << BlockBits

// Addr is a physical (simulated) byte address.
type Addr uint64

// Block returns the block-aligned address (low bits cleared).
func (a Addr) Block() Addr { return a &^ (BlockSize - 1) }

// BlockID returns the block number (address >> BlockBits).
func (a Addr) BlockID() uint64 { return uint64(a) >> BlockBits }

// Offset returns the byte offset within the block.
func (a Addr) Offset() uint64 { return uint64(a) & (BlockSize - 1) }

// Kind classifies a memory access as it is seen by a cache.
type Kind uint8

const (
	// Load is a demand read issued by a core.
	Load Kind = iota
	// Store is a demand write issued by a core (write-allocate).
	Store
	// Prefetch is a request issued by a hardware prefetcher.
	Prefetch
	// Writeback is a dirty block evicted from an upper level.
	Writeback
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsDemand reports whether the access was directly issued by a core
// (as opposed to a prefetcher or a writeback). Demand accesses train
// predictors and contribute to IPC; non-demand accesses do not.
func (k Kind) IsDemand() bool { return k == Load || k == Store }

// Completer is the response side of a request: the component that
// issued it. Completion is routed as an (owner, tag) pair instead of a
// per-request closure so the steady-state access path allocates
// nothing — the owner keeps an indexed completion table (the CPU's
// ROB-slot table, a cache's MSHR slab) and the tag names the entry the
// response belongs to.
type Completer interface {
	// Complete is invoked exactly once when the request's data is
	// available, with the tag the owner stored in the request and the
	// completion cycle.
	Complete(tag uint32, cycle uint64)
}

// CompleteFunc adapts a function to Completer, for drivers that want
// a callback per request instead of a completion table.
type CompleteFunc func(tag uint32, cycle uint64)

// Complete implements Completer.
func (f CompleteFunc) Complete(tag uint32, cycle uint64) { f(tag, cycle) }

// Request is a memory access travelling down the hierarchy.
//
// A single Request object is reused as the access descends (L1 → L2 →
// LLC → DRAM) so identity is stable; response routing happens through
// the (Owner, Tag) completion route installed by the issuing
// component. Requests are pooled: components obtain them from their
// RequestPool and the component that finishes a request returns it
// with Release, so the steady-state cycle loop allocates none.
type Request struct {
	// ID is unique per issued request within a simulation; useful for
	// debugging and deterministic tie-breaking.
	ID uint64
	// Addr is the accessed byte address. Block alignment is applied by
	// the caches; Addr keeps the original offset for realism.
	Addr Addr
	// PC is the program counter of the instruction that caused the
	// access. For prefetches it is the PC of the triggering
	// instruction (the paper's CARE learns per-PC behaviour for both).
	PC Addr
	// Core is the issuing core's index.
	Core int
	// Kind classifies the access.
	Kind Kind
	// IssueCycle is the cycle the request entered the hierarchy.
	IssueCycle uint64
	// PMC is filled in by the PMC measurement logic when an LLC miss
	// completes; it rides back with the response so the replacement
	// policy can see it at fill time.
	PMC float64
	// MLPCost is the analogous MLP-based cost (Qureshi et al.), used
	// by M-CARE.
	MLPCost float64
	// Owner, if non-nil, receives Complete(Tag, cycle) exactly once
	// when the request's data is available to the requester.
	Owner Completer
	// Tag is the owner's completion-table index for this request.
	Tag uint32
	// PrefetchHit records that a demand access hit a block that was
	// brought in by a prefetcher (used by prefetch-aware policies).
	PrefetchHit bool

	// pool, when non-nil, is where Release returns this request.
	pool *RequestPool
}

// HasDone reports whether a completion route is installed: the
// issuer is waiting for this request's data.
func (r *Request) HasDone() bool { return r.Owner != nil }

// Respond invokes the completion route, if any, and clears it so a
// double response is detectable during testing.
func (r *Request) Respond(cycle uint64) {
	if o := r.Owner; o != nil {
		r.Owner = nil
		o.Complete(r.Tag, cycle)
	}
}

// Completion is a request's captured completion route. Interceptors
// (fault injection) take the route over with TakeCompletion and
// deliver — or drop — it later, independent of the request object,
// which may be released and reused in the meantime.
type Completion struct {
	owner Completer
	tag   uint32
}

// TakeCompletion removes and returns r's completion route; the
// request will no longer respond to anyone.
func (r *Request) TakeCompletion() Completion {
	c := Completion{owner: r.Owner, tag: r.Tag}
	r.Owner = nil
	return c
}

// Valid reports whether the captured route leads anywhere.
func (c Completion) Valid() bool { return c.owner != nil }

// Deliver fires the captured completion route.
func (c Completion) Deliver(cycle uint64) {
	if c.owner != nil {
		c.owner.Complete(c.tag, cycle)
	}
}

// RequestPool is a free list of Request objects. Each issuing
// component owns one; a request returns to the pool it came from
// (wherever in the hierarchy it is released), so steady-state
// simulation recycles a bounded working set instead of allocating.
// Pools are not safe for concurrent use — one simulated system runs
// single-threaded, and independent systems own independent pools.
type RequestPool struct {
	free []*Request
}

// Get returns a zeroed request bound to this pool.
func (p *RequestPool) Get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	return &Request{pool: p}
}

// Release returns r to its origin pool, zeroing it. Releasing a
// request that was not obtained from a pool (tests building literals)
// is a no-op, so consuming components can release unconditionally.
func (r *Request) Release() {
	p := r.pool
	if p == nil {
		return
	}
	*r = Request{pool: p}
	p.free = append(p.free, r)
}

// String implements fmt.Stringer for debugging.
func (r *Request) String() string {
	return fmt.Sprintf("req{id=%d core=%d %s pc=%#x addr=%#x}", r.ID, r.Core, r.Kind, uint64(r.PC), uint64(r.Addr))
}
