// Package replacement implements the cache replacement policies the
// paper evaluates against — LRU, SHiP++, Hawkeye, Glider and
// Mockingjay — and SRRIP, which the care/cache service comparison
// adds, plus a registry so simulations select policies by name. The
// paper's own CARE and M-CARE policies live in internal/core/care and
// register themselves here. The set-dueling insertion policies (LIP,
// BIP, DIP, BRRIP, DRRIP) are the one family no experiment runs; a
// harness test keeps the registry to the experiments' policies plus
// that family.
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

// xorshift is a tiny deterministic PRNG for policies that need
// randomised decisions (BIP/BRRIP throttling). Using our own keeps
// runs reproducible and dependency-free.
type xorshift uint64

func newXorshift(seed uint64) xorshift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return xorshift(seed)
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// intn returns a value in [0, n).
func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// dueling implements set dueling (Qureshi et al.): a handful of
// leader sets are dedicated to each of two competing policies and a
// saturating counter tracks which leader group misses less.
type dueling struct {
	setsBits int
	psel     int
	pselMax  int
	leaderA  map[int]bool
	leaderB  map[int]bool
}

// newDueling dedicates `leaders` leader sets to each policy out of
// `sets` total.
func newDueling(sets, leaders int) *dueling {
	d := &dueling{pselMax: 1023, psel: 512, leaderA: map[int]bool{}, leaderB: map[int]bool{}}
	if leaders > sets/2 {
		leaders = sets / 2
	}
	if leaders < 1 {
		leaders = 1
	}
	stride := sets / (2 * leaders)
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < leaders; i++ {
		d.leaderA[(2*i)*stride%sets] = true
		d.leaderB[(2*i+1)*stride%sets] = true
	}
	return d
}

// onMiss records a miss in set; leader misses move PSEL.
func (d *dueling) onMiss(set int) {
	if d.leaderA[set] {
		if d.psel < d.pselMax {
			d.psel++
		}
	} else if d.leaderB[set] {
		if d.psel > 0 {
			d.psel--
		}
	}
}

// useA reports the policy to apply in set: leaders use their own,
// followers use the PSEL winner (low PSEL means A is missing less).
func (d *dueling) useA(set int) bool {
	if d.leaderA[set] {
		return true
	}
	if d.leaderB[set] {
		return false
	}
	return d.psel < 512
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
