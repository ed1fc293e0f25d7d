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

// Adapter drives an unmodified zoo policy from Access values. It
// holds no per-slot state: a policy keeps what it needs in its own
// side arrays, and the host's occupancy record is the only record of
// which ways are live.
//
// The adapter is deliberately single-threaded: the care/cache shared
// segment guarantees one goroutine per segment (the concurrent
// wrapper holds a per-shard mutex), exactly like the simulator's
// sequential tick loop.
type Adapter struct {
	pol cache.Policy
}

// NewAdapter wraps a policy for a sets×ways geometry. The policy's
// Init is invoked here.
func NewAdapter(pol cache.Policy, sets, ways int) *Adapter {
	pol.Init(sets, ways)
	return &Adapter{pol: pol}
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
	return a.pol.Victim(set, a.info(acc))
}

// OnHit records a hit on (set, way).
func (a *Adapter) OnHit(set, way int, acc Access) {
	a.pol.OnHit(set, way, a.info(acc))
}

// OnEvict notifies the policy that the live block in (set, way) is
// leaving (by replacement or explicit deletion).
func (a *Adapter) OnEvict(set, way int, acc Access) {
	a.pol.OnEvict(set, way, a.info(acc))
}

// OnFill notifies the policy that a new block is installed in
// (set, way).
func (a *Adapter) OnFill(set, way int, acc Access) {
	a.pol.OnFill(set, way, a.info(acc))
}
