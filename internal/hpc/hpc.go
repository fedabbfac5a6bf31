// Package hpc implements the hardware-performance-counter fabric: a named,
// ordered catalog of microarchitectural event counters, a sampler that
// snapshots deltas every N instructions, per-counter max-normalization (the
// paper normalizes statistics over the maximum seen value), and a derived
// statistic expansion (total / rate / per-cycle / distribution views) that
// grows the base event space toward the ~1160-counter space the paper
// collects from gem5.
package hpc

import (
	"fmt"
	"sort"

	"evax/internal/fmath"
)

// Catalog is an immutable ordered list of counter names. Counter vectors are
// aligned with it by index.
type Catalog struct {
	names []string
	index map[string]int
}

// NewCatalog builds a catalog from names, which must be unique.
func NewCatalog(names []string) (*Catalog, error) {
	c := &Catalog{names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range names {
		if _, dup := c.index[n]; dup {
			return nil, fmt.Errorf("duplicate counter name %q", n)
		}
		c.index[n] = i
	}
	return c, nil
}

// MustCatalog is NewCatalog panicking on error (for static catalogs).
func MustCatalog(names []string) *Catalog {
	c, err := NewCatalog(names)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of counters.
func (c *Catalog) Len() int { return len(c.names) }

// Name returns the name at index i.
func (c *Catalog) Name(i int) string { return c.names[i] }

// Names returns a copy of all names in order.
func (c *Catalog) Names() []string { return append([]string(nil), c.names...) }

// Index returns the index of name, or -1 if absent.
func (c *Catalog) Index(name string) int {
	if i, ok := c.index[name]; ok {
		return i
	}
	return -1
}

// MustIndex returns the index of name, panicking if absent. Feature lists
// for the detectors are static; a missing name is a programming error.
func (c *Catalog) MustIndex(name string) int {
	i := c.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("hpc: unknown counter %q", name))
	}
	return i
}

// Source provides live counter values aligned with a catalog.
type Source interface {
	// ReadCounters fills out (len == catalog.Len()) with cumulative values.
	ReadCounters(out []uint64)
	// Instructions returns committed instructions so far.
	Instructions() uint64
	// Cycles returns elapsed cycles so far.
	Cycles() uint64
}

// Sample is one sampling-window delta of every counter.
type Sample struct {
	// Values holds per-counter deltas over the window, aligned with the
	// catalog.
	Values []float64
	// Instructions and Cycles are the window lengths.
	Instructions uint64
	Cycles       uint64
	// InstrStart is the committed-instruction count at window start.
	InstrStart uint64
}

// Sampler snapshots counter deltas from a Source at a fixed instruction
// cadence (the paper samples every 100 / 1k / 10k / 100k instructions).
type Sampler struct {
	cat      *Catalog
	src      Source
	interval uint64

	prev      []uint64
	cur       []uint64
	prevInstr uint64
	prevCycle uint64
	started   bool
}

// NewSampler creates a sampler reading src every interval instructions.
func NewSampler(cat *Catalog, src Source, interval uint64) *Sampler {
	if interval == 0 {
		interval = 10_000
	}
	return &Sampler{
		cat:      cat,
		src:      src,
		interval: interval,
		prev:     make([]uint64, cat.Len()),
		cur:      make([]uint64, cat.Len()),
	}
}

// Interval returns the sampling cadence in instructions.
func (s *Sampler) Interval() uint64 { return s.interval }

// Due reports whether a full window has elapsed since the last sample.
func (s *Sampler) Due() bool {
	if !s.started {
		return true
	}
	return s.src.Instructions() >= s.prevInstr+s.interval
}

// Take snapshots the current window. The first call establishes the
// baseline and returns (Sample{}, false).
func (s *Sampler) Take() (Sample, bool) {
	return s.TakeInto(nil)
}

// TakeInto is Take writing the window deltas into vals (len == cat.Len())
// instead of allocating; the returned Sample.Values aliases vals. A nil
// vals allocates a fresh row. This is the steady-state online path: with a
// caller-owned row it performs zero heap allocations per sample.
//
//evaxlint:hotpath
func (s *Sampler) TakeInto(vals []float64) (Sample, bool) {
	instr := s.src.Instructions()
	cycles := s.src.Cycles()
	s.src.ReadCounters(s.cur)
	if !s.started {
		s.started = true
		copy(s.prev, s.cur)
		s.prevInstr, s.prevCycle = instr, cycles
		return Sample{}, false
	}
	if vals == nil {
		vals = make([]float64, s.cat.Len()) //evaxlint:ignore hotpath nil-vals convenience path; online callers pass an owned row
	}
	for i := range vals {
		vals[i] = float64(s.cur[i] - s.prev[i])
	}
	sm := Sample{
		Values:       vals,
		Instructions: instr - s.prevInstr,
		Cycles:       cycles - s.prevCycle,
		InstrStart:   s.prevInstr,
	}
	copy(s.prev, s.cur)
	s.prevInstr, s.prevCycle = instr, cycles
	return sm, true
}

// DerivedKind names one derived view of a base counter.
type DerivedKind int

const (
	// DerivedTotal is the raw window delta.
	DerivedTotal DerivedKind = iota
	// DerivedRate is the delta per 1k instructions.
	DerivedRate
	// DerivedPerCycle is the delta per cycle.
	DerivedPerCycle
	// DerivedBurst is delta² / window (spikiness proxy for distribution).
	DerivedBurst
	// DerivedPresence is 1 if the event fired at all in the window.
	DerivedPresence
	// DerivedLog is log2(1+delta), compressing heavy-tailed counters.
	DerivedLog
	// DerivedShare is this counter's share of the window's total events.
	DerivedShare
	// NumDerivedKinds is the number of derived views per base counter.
	NumDerivedKinds
)

var derivedNames = [NumDerivedKinds]string{
	"total", "rate", "percycle", "burst", "presence", "log", "share",
}

// DerivedSpaceSize returns the dimensionality of the expanded counter space
// for a catalog of n base events. With the machine's ~115 base events and 7
// views this yields an ~800-dimensional derived space, standing in for the
// ~1160-counter space the paper samples from gem5.
func DerivedSpaceSize(n int) int { return n * int(NumDerivedKinds) }

// DerivedName names derived feature j of an expanded space over cat.
func DerivedName(cat *Catalog, j int) string {
	base := j / int(NumDerivedKinds)
	kind := j % int(NumDerivedKinds)
	return cat.Name(base) + "." + derivedNames[kind]
}

// Expander is the derived-view expansion compiled into an executable plan:
// one (source index, op) pair per output slot, fixed at construction. Apply
// is a single slot loop into a caller-provided row — no name lookups, no
// per-sample allocation. The float formulas are identical to the historical
// per-counter expansion (TestExpanderMatchesReference writes them out).
type Expander struct {
	n   int
	src []int32       // per output slot: base counter index
	op  []DerivedKind // per output slot: derived view to compute
}

// NewExpander compiles the expansion plan for a base space of n counters.
func NewExpander(n int) *Expander {
	e := &Expander{
		n:   n,
		src: make([]int32, DerivedSpaceSize(n)),
		op:  make([]DerivedKind, DerivedSpaceSize(n)),
	}
	for j := range e.src {
		e.src[j] = int32(j / int(NumDerivedKinds))
		e.op[j] = DerivedKind(j % int(NumDerivedKinds))
	}
	return e
}

// Dim returns the expanded dimensionality of the plan.
func (e *Expander) Dim() int { return len(e.src) }

// ExpandInto applies the compiled plan to s, writing the derived row into
// dst (len == Dim()). Every slot is written, so dst may be dirty. Zero heap
// allocations (the dimension-mismatch panic may format, but the crash path
// is exempt from the contract).
//
//evaxlint:hotpath
func (e *Expander) ExpandInto(dst []float64, s Sample) {
	if len(s.Values) != e.n || len(dst) != len(e.src) {
		panic(fmt.Sprintf("hpc: ExpandInto dims: sample %d (plan %d), dst %d (plan %d)",
			len(s.Values), e.n, len(dst), len(e.src)))
	}
	total, instrK, cyc := WindowTerms(s.Values, s.Instructions, s.Cycles)
	for j, si := range e.src {
		dst[j] = EvalDerived(e.op[j], s.Values[si], total, instrK, cyc)
	}
}

// WindowTerms computes the per-window denominators every derived view
// shares: the summed event count (DerivedShare), instructions in thousands
// and elapsed cycles, both guarded to 1 for empty windows. Factored out of
// ExpandInto so the fused scoring kernel (internal/kernel) evaluates exactly
// the float-op sequence of the reference expansion — bit-identity between
// the two paths holds by construction, not by parallel maintenance.
func WindowTerms(values []float64, instructions, cycles uint64) (total, instrK, cyc float64) {
	for _, v := range values {
		total += v
	}
	instrK = float64(instructions) / 1000
	if fmath.Zero(instrK) {
		instrK = 1
	}
	cyc = float64(cycles)
	if fmath.Zero(cyc) {
		cyc = 1
	}
	return total, instrK, cyc
}

// EvalDerived computes one derived view of raw counter delta v given the
// window terms from WindowTerms. This is the single source of truth for the
// derived-statistic formulas: the Expander and the fused kernel both call
// it, so their outputs are bit-identical per slot.
func EvalDerived(op DerivedKind, v, total, instrK, cyc float64) float64 {
	switch op {
	case DerivedTotal:
		return v
	case DerivedRate:
		return v / instrK
	case DerivedPerCycle:
		return v / cyc
	case DerivedBurst:
		return v * v / cyc
	case DerivedPresence:
		if v > 0 {
			return 1
		}
		return 0
	case DerivedLog:
		return Log2p1(v)
	default: // DerivedShare
		if total > 0 {
			return v / total
		}
		return 0
	}
}

// Log2p1 is a cheap log2(1+v) via frexp-free iteration; v is a counter
// delta so precision demands are low: linear interpolation of log2 on
// [1,2) after halving down (log2(x) ~ x-1).
func Log2p1(v float64) float64 {
	if v <= 0 {
		return 0
	}
	n := 0.0
	x := 1 + v
	for x >= 2 {
		x /= 2
		n++
	}
	return n + (x - 1)
}

// TopK returns the indices of the k largest values (used by interpretability
// tooling and the feature-engineering search). Ties break toward lower index.
func TopK(values []float64, k int) []int {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return values[idx[a]] > values[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
