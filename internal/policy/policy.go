// Package policy defines the typed identifier for LLC replacement
// policies. It is the vocabulary shared by configuration surfaces
// (sim.Config, CLI flags, the public care API): a Policy is validated
// once, up front, with a typed error — instead of an unknown name
// surfacing as a construction failure deep inside simulator setup.
//
// The package deliberately has no dependencies so every layer can
// import it; the replacement registry cross-checks at test time that
// the constant set and the registered factories stay in lockstep.
package policy

import (
	"fmt"
	"sort"
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

// ErrUnknown reports a policy name outside the zoo. It is returned
// (wrapped, with the offending name and the valid set) by Parse and
// by Policy.Validate, and surfaces at configuration-validation time.
type ErrUnknown struct {
	Name string
}

func (e *ErrUnknown) Error() string {
	return fmt.Sprintf("unknown LLC policy %q (valid: %v)", e.Name, All())
}

var known = func() map[Policy]bool {
	m := make(map[Policy]bool, len(all))
	for _, p := range all {
		m[p] = true
	}
	return m
}()

var all = []Policy{CARE, Glider, Hawkeye, LRU, MCARE, Mockingjay, SHiPPP, SRRIP}

// All returns every valid policy in sorted order.
func All() []Policy {
	out := make([]Policy, len(all))
	copy(out, all)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Parse validates a policy name, returning *ErrUnknown for names
// outside the zoo. It round-trips with String: Parse(p.String()) == p
// for every p in All().
func Parse(name string) (Policy, error) {
	p := Policy(name)
	if !known[p] {
		return "", &ErrUnknown{Name: name}
	}
	return p, nil
}

// String implements fmt.Stringer.
func (p Policy) String() string { return string(p) }

// Validate reports *ErrUnknown if p is not in the zoo. The empty
// Policy is invalid; configuration defaults fill in LRU explicitly.
func (p Policy) Validate() error {
	if !known[p] {
		return &ErrUnknown{Name: string(p)}
	}
	return nil
}
