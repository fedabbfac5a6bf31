package dataset

import (
	"fmt"
	"slices"
)

// SampleBlock stores a corpus's numeric payload in two contiguous backing
// arrays — one for raw counter rows, one for derived rows — with every
// Sample.Raw/Derived a view into them. One block per corpus means corpus
// construction does O(1) allocations instead of two per sample, corpus
// normalization is a sweep over a single flat array, and merging per-job
// batches from the parallel runner is block concatenation.
//
// Row views are capacity-clamped (three-index slices), so an append through
// a view can never silently clobber the next row in the block.
type SampleBlock struct {
	rawDim, derDim int
	raw, derived   []float64
	rows           int
}

// NewSampleBlock creates an empty block for rows of the given dimensions.
func NewSampleBlock(rawDim, derDim int) *SampleBlock {
	return &SampleBlock{rawDim: rawDim, derDim: derDim}
}

// Len returns the number of rows.
func (b *SampleBlock) Len() int { return b.rows }

// RawDim returns the raw row width.
func (b *SampleBlock) RawDim() int { return b.rawDim }

// DerivedDim returns the derived row width.
func (b *SampleBlock) DerivedDim() int { return b.derDim }

// Grow makes room for n more rows, so the next n Extends move no backing
// array. Use it when the row count is known or bounded up front.
func (b *SampleBlock) Grow(n int) {
	b.raw = slices.Grow(b.raw, n*b.rawDim)
	b.derived = slices.Grow(b.derived, n*b.derDim)
}

// Reset empties the block and keeps its backing arrays for reuse.
func (b *SampleBlock) Reset() {
	b.rows = 0
	b.raw = b.raw[:0]
	b.derived = b.derived[:0]
}

// Extend appends one zeroed row to both backing arrays and returns its
// index. Growth may move the backing arrays, so views from RawRow and
// DerivedRow are only stable once the block stops growing (Bind rebinds
// sample views after the final Extend).
func (b *SampleBlock) Extend() int {
	i := b.rows
	b.rows++
	b.raw = append(b.raw, make([]float64, b.rawDim)...)
	b.derived = append(b.derived, make([]float64, b.derDim)...)
	return i
}

// RawRow returns the raw-counter view of row i (capacity-clamped).
func (b *SampleBlock) RawRow(i int) []float64 {
	o := i * b.rawDim
	return b.raw[o : o+b.rawDim : o+b.rawDim]
}

// DerivedRow returns the derived-vector view of row i (capacity-clamped).
func (b *SampleBlock) DerivedRow(i int) []float64 {
	o := i * b.derDim
	return b.derived[o : o+b.derDim : o+b.derDim]
}

// DerivedData returns the whole derived backing array (rows*DerivedDim,
// row-major) — the corpus normalizer sweeps this flat, one pass for maxima
// and one for scaling, instead of chasing per-sample slices.
func (b *SampleBlock) DerivedData() []float64 { return b.derived[: b.rows*b.derDim : b.rows*b.derDim] }

// RawData returns the whole raw backing array (rows*RawDim, row-major) —
// the fused kernel's batch entry points sweep raw rows contiguously.
func (b *SampleBlock) RawData() []float64 { return b.raw[: b.rows*b.rawDim : b.rows*b.rawDim] }

// Bind points each sample's Raw/Derived at its row view. Call once the
// block is fully grown; samples[i] must correspond to row i.
func (b *SampleBlock) Bind(samples []Sample) {
	if len(samples) != b.rows {
		panic(fmt.Sprintf("dataset: Bind %d samples to %d rows", len(samples), b.rows))
	}
	for i := range samples {
		samples[i].Raw = b.RawRow(i)
		samples[i].Derived = b.DerivedRow(i)
	}
}

// Repack copies the samples' vectors into one fresh contiguous block and
// rebinds their views into it. This is the corpus merge: the parallel
// runner returns per-job batches (each backed by its own block), and the
// concatenated corpus becomes a single block in job order. Returns nil for
// an empty slice.
func Repack(samples []Sample) *SampleBlock {
	if len(samples) == 0 {
		return nil
	}
	b := &SampleBlock{
		rawDim:  len(samples[0].Raw),
		derDim:  len(samples[0].Derived),
		rows:    len(samples),
		raw:     make([]float64, len(samples)*len(samples[0].Raw)),
		derived: make([]float64, len(samples)*len(samples[0].Derived)),
	}
	for i := range samples {
		if len(samples[i].Raw) != b.rawDim || len(samples[i].Derived) != b.derDim {
			panic(fmt.Sprintf("dataset: Repack row %d dims (%d,%d) != (%d,%d)",
				i, len(samples[i].Raw), len(samples[i].Derived), b.rawDim, b.derDim))
		}
		copy(b.RawRow(i), samples[i].Raw)
		copy(b.DerivedRow(i), samples[i].Derived)
	}
	b.Bind(samples)
	return b
}
