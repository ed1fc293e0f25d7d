package replacement

import (
	"care/internal/cache"
	"care/internal/mem"
)

// Access is the simulator-independent description of one cache
// access: the minimal vocabulary a replacement policy actually needs
// to make decisions, with the simulator-specific fields (program
// counters, measured PMC, MSHR latencies) generalised.
//
// It is the adapter contract between the policy zoo and hosts that
// are not the cycle-accurate simulator — concretely the care/cache
// service library, whose segments translate Get/Put traffic into
// Access values. Each zoo policy is written once against
// cache.Policy and drives both worlds.
type Access struct {
	// Sig is a stable identity for the access's source. The simulator
	// uses the program counter; a service cache uses a per-key hash,
	// which turns PC-signature-trained predictors (SHiP++, CARE) into
	// per-key reuse/cost predictors.
	Sig uint64
	// Block identifies the data being accessed (the tag). Policies see
	// it as the block address.
	Block uint64
	// Write marks a mutating access (mem.Store); reads are mem.Load.
	Write bool
	// Cost is the measured cost of the miss being filled, in the
	// host's cost units: the simulator's PMC (cycles), or a service
	// backend's load latency. It feeds cost-sensitive policies (CARE,
	// M-CARE) through the PMC/MLP channels.
	Cost float64
}

// Adapter drives an unmodified zoo policy from Access values. It owns
// the per-(set, way) cache.Block metadata the simulator's cache model
// normally maintains, synthesising the fields policies read (tag, PC,
// dirtiness) from each Access.
//
// The adapter is deliberately single-threaded: the care/cache shared
// segment guarantees one goroutine per segment (the concurrent
// wrapper holds a per-shard mutex), exactly like the simulator's
// sequential tick loop.
type Adapter struct {
	pol    cache.Policy
	sets   int
	ways   int
	blocks [][]cache.Block
}

// NewAdapter wraps a policy for a sets×ways geometry. The policy's
// Init is invoked here.
func NewAdapter(pol cache.Policy, sets, ways int) *Adapter {
	a := &Adapter{pol: pol, sets: sets, ways: ways}
	a.blocks = make([][]cache.Block, sets)
	backing := make([]cache.Block, sets*ways)
	for i := range a.blocks {
		a.blocks[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	pol.Init(sets, ways)
	return a
}

// NewAdapterByName constructs a registered policy (cores = 1) and
// wraps it. Callers gate on policy capability metadata first; this
// only fails for unregistered names.
func NewAdapterByName(name string, sets, ways int) (*Adapter, error) {
	pol, err := New(name, 1)
	if err != nil {
		return nil, err
	}
	return NewAdapter(pol, sets, ways), nil
}

// PolicyName names the wrapped policy.
func (a *Adapter) PolicyName() string { return a.pol.Name() }

// info translates an Access into the simulator vocabulary. The cost
// is presented on every channel a cost-sensitive policy might read
// (PMC for CARE, MLP cost for M-CARE) so the choice of channel stays
// a policy detail.
func (a *Adapter) info(acc Access) cache.AccessInfo {
	kind := mem.Load
	if acc.Write {
		kind = mem.Store
	}
	return cache.AccessInfo{
		PC:      mem.Addr(acc.Sig),
		Addr:    mem.Addr(acc.Block << mem.BlockBits),
		Kind:    kind,
		PMC:     acc.Cost,
		MLPCost: acc.Cost,
	}
}

// Victim asks the policy for the way to evict from a full set.
// Mirroring the simulator's cache model, the host fast-paths free
// ways itself, so the policy only ever sees full sets.
func (a *Adapter) Victim(set int, acc Access) int {
	return a.pol.Victim(set, a.blocks[set], a.info(acc))
}

// OnHit records a hit on (set, way).
func (a *Adapter) OnHit(set, way int, acc Access) {
	if acc.Write {
		a.blocks[set][way].Dirty = true
	}
	a.pol.OnHit(set, way, a.blocks[set], a.info(acc))
}

// OnEvict notifies the policy that the valid block in (set, way) is
// leaving (by replacement or explicit deletion).
func (a *Adapter) OnEvict(set, way int, acc Access) {
	evicted := a.blocks[set][way]
	a.pol.OnEvict(set, way, evicted, a.info(acc))
}

// OnFill installs a new block in (set, way) and notifies the policy.
func (a *Adapter) OnFill(set, way int, acc Access) {
	a.blocks[set][way] = cache.Block{
		Valid: true,
		Tag:   acc.Block,
		Dirty: acc.Write,
		PC:    mem.Addr(acc.Sig),
	}
	a.pol.OnFill(set, way, a.blocks[set], a.info(acc))
}

// Invalidate clears (set, way) after an explicit deletion so the slot
// reads as free. The policy has already been told via OnEvict; its
// per-way metadata is reset by the next OnFill.
func (a *Adapter) Invalidate(set, way int) {
	a.blocks[set][way] = cache.Block{}
}

// Valid reports whether (set, way) holds a live block — used by
// integrity checks to cross-validate the host's occupancy tracking.
func (a *Adapter) Valid(set, way int) bool { return a.blocks[set][way].Valid }
