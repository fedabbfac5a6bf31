package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// The pinned corpus fingerprints below were captured on the row-oriented
// pipeline (closure-table ReadCounters, a freshly allocated derived row
// per sample, per-row normalization) immediately before the columnar
// refactor. The columnar path — flat counter array, compiled Expander,
// SampleBlock storage, column-sweep normalization — must reproduce them
// bit-for-bit: the hash covers every raw delta, every derived value, all
// labels and window geometry, and (for the normalized hash) the fitted
// maxima.
const (
	goldenRawHash        = uint64(0x0e57f39fdc733db0)
	goldenNormalizedHash = uint64(0xbdac79897cd71939)
	goldenSamples        = 151
	goldenRawDim         = 115
	goldenDerivedDim     = 805
)

// corpusHash fingerprints samples: every float bit pattern plus labels.
func corpusHash(samples []Sample) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(u uint64) { binary.LittleEndian.PutUint64(buf[:], u); h.Write(buf[:]) }
	wf := func(f float64) { w64(math.Float64bits(f)) }
	for i := range samples {
		s := &samples[i]
		for _, v := range s.Raw {
			wf(v)
		}
		for _, v := range s.Derived {
			wf(v)
		}
		h.Write([]byte(s.Program))
		mal := byte(0)
		if s.Malicious {
			mal = 1
		}
		h.Write([]byte{byte(s.Class), mal, s.Phases})
		w64(s.Instructions)
		w64(s.Cycles)
	}
	return h.Sum64()
}

// normalizedHash fingerprints a fitted dataset: normalized rows + maxima.
func normalizedHash(d *Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wf := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for i := range d.Samples {
		for _, v := range d.Samples[i].Derived {
			wf(v)
		}
	}
	for _, v := range d.Maxima() {
		wf(v)
	}
	return h.Sum64()
}

func TestCorpusGoldenHash(t *testing.T) {
	samples := CollectAll(quickCorpusOptions())
	if len(samples) != goldenSamples {
		t.Fatalf("corpus size = %d, want %d", len(samples), goldenSamples)
	}
	if rd, dd := len(samples[0].Raw), len(samples[0].Derived); rd != goldenRawDim || dd != goldenDerivedDim {
		t.Fatalf("dims = (%d,%d), want (%d,%d)", rd, dd, goldenRawDim, goldenDerivedDim)
	}
	if got := corpusHash(samples); got != goldenRawHash {
		t.Errorf("raw corpus hash = %#016x, want %#016x (columnar path diverged from pre-refactor reference)",
			got, goldenRawHash)
	}
	ds := New(samples)
	if got := normalizedHash(ds); got != goldenNormalizedHash {
		t.Errorf("normalized corpus hash = %#016x, want %#016x (normalization sweep diverged)",
			got, goldenNormalizedHash)
	}
}
