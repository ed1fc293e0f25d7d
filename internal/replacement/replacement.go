// Package replacement implements the cache replacement policies the
// paper evaluates against — LRU, SHiP++, Hawkeye, Glider and
// Mockingjay — and SRRIP, which the care/cache service comparison
// adds, each against cache.Policy, plus the PC signature and set
// sampling they share with the paper's CARE (internal/core/care).
// internal/policy names the policies and builds them by name.
package replacement

import "care/internal/mem"

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
// sampled sets for a 2048-set LLC ⇒ stride 32). The stride is 32 bits
// so the sampler and a policy's way count share one word of the
// policy's hit-path cache line.
type SampledSets struct{ stride int32 }

// NewSampledSets samples `want` sets out of `total`.
func NewSampledSets(total, want int) SampledSets {
	if want <= 0 || want >= total {
		return SampledSets{stride: 1}
	}
	return SampledSets{stride: int32(total / want)}
}

// Sampled reports whether set participates in training.
func (s SampledSets) Sampled(set int) bool { return s.stride <= 1 || set%int(s.stride) == 0 }

// Index reports whether set participates in training and, if it does,
// its number among the sampled sets, in [0, Count(total)), so a
// policy can keep training state for the sampled sets only.
func (s SampledSets) Index(set int) (int, bool) {
	if s.stride <= 1 {
		return set, true
	}
	if set%int(s.stride) != 0 {
		return 0, false
	}
	return set / int(s.stride), true
}

// Count returns how many of total sets are sampled.
func (s SampledSets) Count(total int) int {
	if s.stride <= 1 {
		return total
	}
	return (total + int(s.stride) - 1) / int(s.stride)
}
