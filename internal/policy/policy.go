// Package policy is the one place that says which LLC replacement
// policies exist, which of them the care/cache library can drive, and
// how each is built. Configuration surfaces (sim.Config, CLI flags,
// the public care API) share its typed Policy: a name is validated
// once, up front, with a typed error, instead of surfacing as a
// construction failure deep inside simulator setup.
//
// The package imports the policy implementations (internal/replacement
// and internal/core/care) and the interface they implement
// (internal/cache); none of those imports it back.
package policy

import (
	"fmt"

	"care/internal/cache"
	careplc "care/internal/core/care"
	"care/internal/replacement"
)

// Policy names an LLC replacement policy. Its underlying type is
// string so untyped constants assign directly (cfg.LLCPolicy =
// "care") while string variables require an explicit, visible
// conversion or a Parse call that validates.
type Policy string

// The policy zoo: the paper's CARE and its M-CARE ablation, the
// baselines its figures compare against (LRU, SHiP++, Hawkeye, Glider,
// Mockingjay), and SRRIP, which the svc comparison adds.
const (
	CARE       Policy = "care"
	Glider     Policy = "glider"
	Hawkeye    Policy = "hawkeye"
	LRU        Policy = "lru"
	MCARE      Policy = "m-care"
	Mockingjay Policy = "mockingjay"
	SHiPPP     Policy = "ship++"
	SRRIP      Policy = "srrip"
)

// zoo lists every policy in sorted order with its capability and its
// constructor. build makes an instance for an LLC shared by cores
// cores; cfg tunes CARE and M-CARE and is ignored by the rest.
// portable is what Policy.Portable reports.
var zoo = []struct {
	p        Policy
	portable bool
	build    func(cores int, cfg careplc.Config) cache.Policy
}{
	{CARE, true, func(_ int, cfg careplc.Config) cache.Policy { return careplc.New(cfg) }},
	{Glider, false, func(cores int, _ careplc.Config) cache.Policy { return replacement.NewGlider(cores) }},
	{Hawkeye, false, func(int, careplc.Config) cache.Policy { return replacement.NewHawkeye() }},
	{LRU, true, func(int, careplc.Config) cache.Policy { return replacement.NewLRU() }},
	{MCARE, true, func(_ int, cfg careplc.Config) cache.Policy { return careplc.NewMCARE(cfg) }},
	{Mockingjay, false, func(int, careplc.Config) cache.Policy { return replacement.NewMockingjay() }},
	{SHiPPP, true, func(int, careplc.Config) cache.Policy { return replacement.NewSHiPPP() }},
	{SRRIP, true, func(int, careplc.Config) cache.Policy { return replacement.NewSRRIP() }},
}

// entry returns p's zoo index, or -1 if p is not in the zoo.
func entry(p Policy) int {
	for i := range zoo {
		if zoo[i].p == p {
			return i
		}
	}
	return -1
}

// ErrUnknown reports a policy name outside the zoo. It is returned
// (wrapped, with the offending name and the valid set) by Parse, by
// Policy.Validate and by New, and surfaces at
// configuration-validation time.
type ErrUnknown struct {
	Name string
}

func (e *ErrUnknown) Error() string {
	return fmt.Sprintf("unknown LLC policy %q (valid: %v)", e.Name, All())
}

// All returns every valid policy in sorted order.
func All() []Policy {
	out := make([]Policy, len(zoo))
	for i := range zoo {
		out[i] = zoo[i].p
	}
	return out
}

// Parse validates a policy name, returning *ErrUnknown for names
// outside the zoo. It round-trips with String: Parse(p.String()) == p
// for every p in All().
func Parse(name string) (Policy, error) {
	p := Policy(name)
	if err := p.Validate(); err != nil {
		return "", err
	}
	return p, nil
}

// String implements fmt.Stringer.
func (p Policy) String() string { return string(p) }

// Validate reports *ErrUnknown if p is not in the zoo. The empty
// Policy is invalid; configuration defaults fill in LRU explicitly.
func (p Policy) Validate() error {
	if entry(p) < 0 {
		return &ErrUnknown{Name: string(p)}
	}
	return nil
}

// Portable reports whether the care/cache service library can drive
// p. The library has keys and values, not program counters and
// cycle-accurate miss measurements. The recency policies (LRU and
// SRRIP) need neither. For the rest the library substitutes a stable
// per-key hash for the PC, which turns the signature-trained
// predictors (SHiP++, CARE, M-CARE) into per-key reuse/cost
// predictors, and a caller-supplied miss cost (e.g. backend load
// latency) for the measured PMC/MLP cost. Hawkeye, Glider and
// Mockingjay reconstruct OPT over cycle-timestamped access quanta, and
// Glider also keeps per-core PC history: their inputs do not exist
// outside the simulator, so the library rejects them.
func (p Policy) Portable() bool {
	i := entry(p)
	return i >= 0 && zoo[i].portable
}

// Portable returns every policy the cache library supports, in sorted
// order.
func Portable() []Policy {
	var out []Policy
	for _, e := range zoo {
		if e.portable {
			out = append(out, e.p)
		}
	}
	return out
}

// New builds a fresh instance of p for an LLC shared by cores cores,
// tuned by cfg if p is CARE or M-CARE. It returns *ErrUnknown for a
// name outside the zoo.
func New(p Policy, cores int, cfg careplc.Config) (cache.Policy, error) {
	i := entry(p)
	if i < 0 {
		return nil, &ErrUnknown{Name: string(p)}
	}
	return zoo[i].build(cores, cfg), nil
}
