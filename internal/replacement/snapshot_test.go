package replacement

import (
	"errors"
	"testing"

	"care/internal/cache"
	"care/internal/checkpoint"
)

// forgedIndexPolicy is a freshly Init'd policy and its checkpoint walk.
type forgedIndexPolicy interface {
	cache.Policy
	checkpoint.Component
}

// TestRestoreRejectsForgedIndex: a checkpoint whose stored value
// indexes outside one of a policy's tables is refused with ErrCorrupt
// as it is restored. Restored, such a value panics the first OnHit,
// OnFill or Victim that reaches it (SHiP++'s SHCT has 16384 entries;
// a signature of 60000 is index out of range).
func TestRestoreRejectsForgedIndex(t *testing.T) {
	const sets, ways = 64, 4
	for _, tc := range []struct {
		name  string
		fresh func() forgedIndexPolicy
		forge func(p forgedIndexPolicy)
		want  error
	}{
		{"ship++/valid", func() forgedIndexPolicy { return NewSHiPPP() }, nil, nil},
		{"ship++/block-signature", func() forgedIndexPolicy { return NewSHiPPP() }, func(p forgedIndexPolicy) {
			p.(*SHiPPP).sig[3*ways+1] = 60000
		}, checkpoint.ErrCorrupt},
		{"hawkeye/valid", func() forgedIndexPolicy { return NewHawkeye() }, func(p forgedIndexPolicy) {
			hawkeyeSamplerWith(p.(*Hawkeye), 7, samplerInfo{sig: shctSize - 1})
		}, nil},
		{"hawkeye/fill-signature", func() forgedIndexPolicy { return NewHawkeye() }, func(p forgedIndexPolicy) {
			p.(*Hawkeye).fillSig[5*ways+2] = shctSize
		}, checkpoint.ErrCorrupt},
		{"hawkeye/sampler-signature", func() forgedIndexPolicy { return NewHawkeye() }, func(p forgedIndexPolicy) {
			hawkeyeSamplerWith(p.(*Hawkeye), 7, samplerInfo{sig: 60000})
		}, checkpoint.ErrCorrupt},
		{"hawkeye/optgen-without-sampler", func() forgedIndexPolicy { return NewHawkeye() }, func(p forgedIndexPolicy) {
			p.(*Hawkeye).optgens[0] = newOptgen(ways)
		}, checkpoint.ErrCorrupt},
		{"glider/valid", func() forgedIndexPolicy { return NewGlider(1) }, func(p forgedIndexPolicy) {
			gliderSamplerWith(p.(*Glider), 7, gliderFeature{row: 1<<gliderTableBits - 1, idxs: [gliderHistoryLen]uint8{gliderWeights - 1}})
		}, nil},
		{"glider/fill-row", func() forgedIndexPolicy { return NewGlider(1) }, func(p forgedIndexPolicy) {
			p.(*Glider).fillFeat[5*ways+2].row = 1 << gliderTableBits
		}, checkpoint.ErrCorrupt},
		{"glider/fill-weight-index", func() forgedIndexPolicy { return NewGlider(1) }, func(p forgedIndexPolicy) {
			p.(*Glider).fillFeat[5*ways+2].idxs[3] = gliderWeights
		}, checkpoint.ErrCorrupt},
		{"glider/sampler-row", func() forgedIndexPolicy { return NewGlider(1) }, func(p forgedIndexPolicy) {
			gliderSamplerWith(p.(*Glider), 7, gliderFeature{row: 60000})
		}, checkpoint.ErrCorrupt},
		{"glider/sampler-weight-index", func() forgedIndexPolicy { return NewGlider(1) }, func(p forgedIndexPolicy) {
			gliderSamplerWith(p.(*Glider), 7, gliderFeature{idxs: [gliderHistoryLen]uint8{0, 200}})
		}, checkpoint.ErrCorrupt},
		{"glider/optgen-without-sampler", func() forgedIndexPolicy { return NewGlider(1) }, func(p forgedIndexPolicy) {
			p.(*Glider).optgens[0] = newOptgen(ways)
		}, checkpoint.ErrCorrupt},
		{"mockingjay/valid", func() forgedIndexPolicy { return NewMockingjay() }, func(p forgedIndexPolicy) {
			mockingjaySamplerWith(p.(*Mockingjay), 7, shctSize-1)
		}, nil},
		{"mockingjay/sampler-signature", func() forgedIndexPolicy { return NewMockingjay() }, func(p forgedIndexPolicy) {
			mockingjaySamplerWith(p.(*Mockingjay), 7, 60000)
		}, checkpoint.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.fresh()
			src.Init(sets, ways)
			if tc.forge != nil {
				tc.forge(src)
			}
			payload, err := checkpoint.Encode(src.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			dst := tc.fresh()
			dst.Init(sets, ways)
			if err := checkpoint.Decode(payload, dst.Checkpoint); !errors.Is(err, tc.want) {
				t.Fatalf("restore returned %v, want %v", err, tc.want)
			}
		})
	}
}

// hawkeyeSamplerWith gives sampled set 0 an OPTgen and a sampler
// holding tag with info.
func hawkeyeSamplerWith(p *Hawkeye, tag uint64, info samplerInfo) {
	p.optgens[0] = newOptgen(p.ways)
	sm := newHawkeyeSampler(8 * p.ways)
	sm.order = []uint64{tag}
	sm.info[tag] = info
	p.samplers[0] = sm
}

// gliderSamplerWith gives sampled set 0 an OPTgen and a sampler
// holding tag with feature f.
func gliderSamplerWith(p *Glider, tag uint64, f gliderFeature) {
	p.optgens[0] = newOptgen(p.ways)
	sm := newGliderSampler(8 * p.ways)
	sm.order = []uint64{tag}
	sm.info[tag] = gliderSamplerInfo{feat: f}
	p.samplers[0] = sm
}

// mockingjaySamplerWith gives sampled set 0 a sampler holding tag
// with signature sig.
func mockingjaySamplerWith(p *Mockingjay, tag uint64, sig uint16) {
	p.clock[0] = 1
	p.samplers[0] = map[uint64]mjSamplerEntry{tag: {lastTime: 1, sig: sig}}
	p.order[0] = []uint64{tag}
}
