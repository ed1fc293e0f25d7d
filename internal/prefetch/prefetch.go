// Package prefetch implements hardware prefetchers: the paper's
// configuration pairs a next-line prefetcher at the L1 data cache
// with an IP-stride (per-PC stride) prefetcher at the L2, as the 2nd
// Cache Replacement Championship did; a classic stream prefetcher is
// included for the prefetcher-sensitivity ablation. New builds one by
// the name a configuration gives (sim.Config.L2Prefetcher).
package prefetch

import (
	"fmt"

	"care/internal/cache"
	"care/internal/mem"
)

// New builds the prefetcher name selects: "next-line" (degree 1),
// "ip-stride" or "stream". "none" and "" return nil: no prefetching.
func New(name string) (cache.Prefetcher, error) {
	switch name {
	case "none", "":
		return nil, nil
	case "next-line":
		return NewNextLine(1), nil
	case "ip-stride":
		return NewIPStride(), nil
	case "stream":
		return NewStream(), nil
	}
	return nil, fmt.Errorf("prefetch: unknown prefetcher %q (have none, next-line, ip-stride, stream)", name)
}

// NextLine prefetches the next Degree sequential blocks on every
// demand access.
type NextLine struct {
	// Degree is how many subsequent lines to fetch (>= 1).
	Degree int
}

// NewNextLine returns a next-line prefetcher with the given degree.
func NewNextLine(degree int) *NextLine {
	if degree < 1 {
		degree = 1
	}
	return &NextLine{Degree: degree}
}

// Name implements cache.Prefetcher.
func (p *NextLine) Name() string { return "next-line" }

// OnAccess implements cache.Prefetcher.
func (p *NextLine) OnAccess(pc, addr mem.Addr, hit bool, buf []mem.Addr) []mem.Addr {
	base := addr.Block()
	for i := 1; i <= p.Degree; i++ {
		buf = append(buf, base+mem.Addr(i*mem.BlockSize))
	}
	return buf
}

// ipEntry is one IP-stride table row.
type ipEntry struct {
	valid      bool
	tag        uint64
	lastBlock  uint64
	stride     int64
	confidence int8
}

// IPStride is a classic per-PC stride prefetcher: it learns the block
// stride of each load instruction and, once confident, prefetches
// Degree blocks ahead along the stride.
type IPStride struct {
	// TableSize is the number of tracking entries (direct mapped).
	TableSize int
	// Degree is the number of strided blocks issued once trained.
	Degree int
	// Threshold is the confidence needed before prefetching.
	Threshold int8

	table []ipEntry
}

// NewIPStride returns an IP-stride prefetcher with typical parameters
// (256-entry table, degree 2, train-to-confidence 2).
func NewIPStride() *IPStride {
	p := &IPStride{TableSize: 256, Degree: 2, Threshold: 2}
	p.table = make([]ipEntry, p.TableSize)
	return p
}

// Name implements cache.Prefetcher.
func (p *IPStride) Name() string { return "ip-stride" }

// OnAccess implements cache.Prefetcher.
func (p *IPStride) OnAccess(pc, addr mem.Addr, hit bool, buf []mem.Addr) []mem.Addr {
	idx := uint64(pc) % uint64(p.TableSize)
	e := &p.table[idx]
	block := addr.BlockID()

	if !e.valid || e.tag != uint64(pc) {
		*e = ipEntry{valid: true, tag: uint64(pc), lastBlock: block}
		return buf
	}

	stride := int64(block) - int64(e.lastBlock)
	if stride == 0 {
		// Same-block access: no training signal.
		return buf
	}
	if stride == e.stride {
		if e.confidence < 8 {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 0
	}
	e.lastBlock = block

	if e.confidence < p.Threshold {
		return buf
	}
	next := int64(block)
	for i := 0; i < p.Degree; i++ {
		next += e.stride
		if next < 0 {
			break
		}
		buf = append(buf, mem.Addr(uint64(next)<<mem.BlockBits))
	}
	return buf
}
