// Package replacement implements the cache replacement policies the
// paper evaluates against — LRU, SHiP++, Hawkeye, Glider and
// Mockingjay — and SRRIP, which the care/cache service comparison
// adds, plus a registry so simulations select policies by name. The
// paper's own CARE and M-CARE policies live in internal/core/care and
// register themselves here. A harness test keeps the registry to
// exactly the policies the experiments run.
package replacement

import (
	"fmt"
	"sort"

	"care/internal/cache"
	"care/internal/mem"
)

// Factory builds a policy instance for a cache shared by cores cores.
type Factory func(cores int) cache.Policy

var registry = map[string]Factory{}

// Register adds a named policy factory. It panics on duplicates so
// registration bugs surface at start-up.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("replacement: duplicate policy %q", name))
	}
	registry[name] = f
}

// New instantiates a registered policy.
func New(name string, cores int) (cache.Policy, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("replacement: unknown policy %q (have %v)", name, Names())
	}
	return f(cores), nil
}

// Names lists registered policies in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SignatureBits is the width of the PC signature used by the
// signature-based policies (SHiP++, Hawkeye, Mockingjay, CARE): 14
// bits per the papers.
const SignatureBits = 14

// Signature hashes a PC to a SignatureBits-bit value. A trailing
// prefetch bit is appended by prefetch-aware policies (SHiP++ §,
// CARE §V-E) so demand and prefetch behaviour train separately.
func Signature(pc mem.Addr, prefetch bool) uint16 {
	h := uint64(pc)
	h ^= h >> 14
	h ^= h >> 28
	h ^= h >> 42
	sig := uint16(h) & ((1 << (SignatureBits - 1)) - 1)
	if prefetch {
		sig |= 1 << (SignatureBits - 1)
	}
	return sig
}

// SampledSets marks every 1-in-`stride` set as sampled, the standard
// set-sampling scheme SHiP/CARE use to bound training overhead (64
// sampled sets for a 2048-set LLC ⇒ stride 32).
type SampledSets struct{ stride int }

// NewSampledSets samples `want` sets out of `total`.
func NewSampledSets(total, want int) SampledSets {
	if want <= 0 || want >= total {
		return SampledSets{stride: 1}
	}
	return SampledSets{stride: total / want}
}

// Sampled reports whether set participates in training.
func (s SampledSets) Sampled(set int) bool { return s.stride <= 1 || set%s.stride == 0 }
