package policy

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
	switch p {
	case LRU, SRRIP, SHiPPP, CARE, MCARE:
		return true
	}
	return false
}

// Portable returns every policy the cache library supports, in sorted
// order.
func Portable() []Policy {
	var out []Policy
	for _, p := range All() {
		if p.Portable() {
			out = append(out, p)
		}
	}
	return out
}
