package hpc

import (
	"math"
	"testing"
)

type fakeSource struct {
	counters []uint64
	instr    uint64
	cycles   uint64
}

func (f *fakeSource) ReadCounters(out []uint64) { copy(out, f.counters) }
func (f *fakeSource) Instructions() uint64      { return f.instr }
func (f *fakeSource) Cycles() uint64            { return f.cycles }

func TestCatalogBasics(t *testing.T) {
	c := MustCatalog([]string{"a", "b", "c"})
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.Index("b") != 1 || c.Index("zzz") != -1 {
		t.Fatal("index lookup wrong")
	}
	if c.MustIndex("c") != 2 {
		t.Fatal("MustIndex wrong")
	}
	if c.Name(0) != "a" {
		t.Fatal("Name wrong")
	}
	names := c.Names()
	names[0] = "mutated"
	if c.Name(0) != "a" {
		t.Fatal("Names() aliases internal storage")
	}
}

func TestCatalogRejectsDuplicates(t *testing.T) {
	if _, err := NewCatalog([]string{"x", "x"}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown counter")
		}
	}()
	MustCatalog([]string{"a"}).MustIndex("nope")
}

func TestSamplerDeltas(t *testing.T) {
	cat := MustCatalog([]string{"x", "y"})
	src := &fakeSource{counters: []uint64{10, 20}, instr: 0, cycles: 0}
	s := NewSampler(cat, src, 100)
	if _, ok := s.Take(); ok {
		t.Fatal("first Take should only establish baseline")
	}
	src.counters = []uint64{15, 50}
	src.instr, src.cycles = 100, 250
	sm, ok := s.Take()
	if !ok {
		t.Fatal("second Take produced nothing")
	}
	if sm.Values[0] != 5 || sm.Values[1] != 30 {
		t.Fatalf("deltas = %v, want [5 30]", sm.Values)
	}
	if sm.Instructions != 100 || sm.Cycles != 250 || sm.InstrStart != 0 {
		t.Fatalf("window = %+v", sm)
	}
}

func TestSamplerDue(t *testing.T) {
	cat := MustCatalog([]string{"x"})
	src := &fakeSource{counters: []uint64{0}}
	s := NewSampler(cat, src, 100)
	if !s.Due() {
		t.Fatal("fresh sampler not due for baseline")
	}
	s.Take()
	src.instr = 50
	if s.Due() {
		t.Fatal("due at half window")
	}
	src.instr = 100
	if !s.Due() {
		t.Fatal("not due at full window")
	}
}

func TestSamplerZeroIntervalDefaults(t *testing.T) {
	cat := MustCatalog([]string{"x"})
	s := NewSampler(cat, &fakeSource{counters: []uint64{0}}, 0)
	if s.Interval() == 0 {
		t.Fatal("zero interval not defaulted")
	}
}

func TestExpandDerived(t *testing.T) {
	s := Sample{
		Values:       []float64{100, 0},
		Instructions: 1000,
		Cycles:       500,
	}
	out := make([]float64, DerivedSpaceSize(2))
	NewExpander(2).ExpandInto(out, s)
	if len(out) != DerivedSpaceSize(2) {
		t.Fatalf("len = %d, want %d", len(out), DerivedSpaceSize(2))
	}
	get := func(base int, k DerivedKind) float64 { return out[base*int(NumDerivedKinds)+int(k)] }
	if get(0, DerivedTotal) != 100 {
		t.Fatalf("total = %v", get(0, DerivedTotal))
	}
	if get(0, DerivedRate) != 100 {
		t.Fatalf("rate per kinstr = %v, want 100", get(0, DerivedRate))
	}
	if get(0, DerivedPerCycle) != 0.2 {
		t.Fatalf("percycle = %v, want 0.2", get(0, DerivedPerCycle))
	}
	if get(0, DerivedPresence) != 1 || get(1, DerivedPresence) != 0 {
		t.Fatal("presence flags wrong")
	}
	if get(0, DerivedShare) != 1 || get(1, DerivedShare) != 0 {
		t.Fatal("share wrong")
	}
	if got := get(0, DerivedLog); math.Abs(got-math.Log2(101)) > 0.2 {
		t.Fatalf("log approx = %v, want ~%v", got, math.Log2(101))
	}
}

func TestDerivedNames(t *testing.T) {
	cat := MustCatalog([]string{"dcache.misses", "lsq.forwLoads"})
	seen := map[string]bool{}
	for j := 0; j < DerivedSpaceSize(cat.Len()); j++ {
		n := DerivedName(cat, j)
		if n == "" || seen[n] {
			t.Fatalf("bad or duplicate derived name %q at %d", n, j)
		}
		seen[n] = true
	}
	if !seen["lsq.forwLoads.rate"] {
		t.Fatal("expected derived name lsq.forwLoads.rate")
	}
}

func TestTopK(t *testing.T) {
	v := []float64{1, 9, 3, 9, 5}
	top := TopK(v, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0] != 1 || top[1] != 3 { // ties break toward lower index
		t.Fatalf("top = %v", top)
	}
	if top[2] != 4 {
		t.Fatalf("third = %d, want 4", top[2])
	}
	if got := TopK(v, 10); len(got) != 5 {
		t.Fatalf("overlong k returned %d", len(got))
	}
}

func TestLog2p1Monotonic(t *testing.T) {
	prev := -1.0
	for v := 0.0; v < 1e6; v = v*1.7 + 1 {
		got := Log2p1(v)
		if got < prev {
			t.Fatalf("Log2p1 not monotonic at %v", v)
		}
		prev = got
	}
}

// randomSample builds a deterministic pseudo-random sample via an xorshift
// walk (no math/rand: seeds must be explicit everywhere).
func randomSample(n int, seed uint64) Sample {
	vals := make([]float64, n)
	x := seed | 1
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = float64(x % 10_000)
		if x%7 == 0 {
			vals[i] = 0 // exercise presence/share zero branches
		}
	}
	return Sample{Values: vals, Instructions: 1000 + seed%5000, Cycles: 2000 + seed%9000}
}

// referenceExpand is the derived expansion written out per counter: the
// window's summed events, instructions in thousands and cycles (the last
// two guarded to 1 for an empty window), then the seven views of each
// counter in kind order.
func referenceExpand(s Sample) []float64 {
	var total float64
	for _, v := range s.Values {
		total += v
	}
	instrK, cyc := float64(s.Instructions)/1000, float64(s.Cycles)
	if s.Instructions == 0 {
		instrK = 1
	}
	if s.Cycles == 0 {
		cyc = 1
	}
	out := make([]float64, 0, DerivedSpaceSize(len(s.Values)))
	for _, v := range s.Values {
		presence, share := 0.0, 0.0
		if v > 0 {
			presence = 1
		}
		if total > 0 {
			share = v / total
		}
		out = append(out, v, v/instrK, v/cyc, v*v/cyc, presence, Log2p1(v), share)
	}
	return out
}

func TestExpanderMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 7, 115} {
		e := NewExpander(n)
		if e.Dim() != DerivedSpaceSize(n) {
			t.Fatalf("n=%d: Dim = %d, want %d", n, e.Dim(), DerivedSpaceSize(n))
		}
		for seed := uint64(1); seed <= 6; seed++ {
			s := randomSample(n, seed*2654435761)
			if seed == 6 {
				s.Instructions, s.Cycles = 0, 0 // an empty window takes the guards
			}
			want := referenceExpand(s)
			got := make([]float64, e.Dim())
			for i := range got {
				got[i] = math.NaN() // dirty row: every slot must be written
			}
			e.ExpandInto(got, s)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d seed=%d slot %d: plan %v != reference %v (bitwise)",
						n, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestExpanderDimensionality(t *testing.T) {
	// Every base counter must contribute exactly NumDerivedKinds slots, and
	// slot j's name must resolve back to base j/NumDerivedKinds.
	const n = 9
	e := NewExpander(n)
	if e.Dim() != n*int(NumDerivedKinds) {
		t.Fatalf("Dim = %d, want %d", e.Dim(), n*int(NumDerivedKinds))
	}
	s := randomSample(n, 42)
	out := make([]float64, e.Dim())
	e.ExpandInto(out, s)
	for base := 0; base < n; base++ {
		if got := out[base*int(NumDerivedKinds)+int(DerivedTotal)]; got != s.Values[base] {
			t.Fatalf("base %d total slot = %v, want %v", base, got, s.Values[base])
		}
	}
}

func TestExpanderRejectsWrongDims(t *testing.T) {
	e := NewExpander(3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched dims")
		}
	}()
	e.ExpandInto(make([]float64, e.Dim()), randomSample(4, 1))
}

func TestTakeIntoZeroAlloc(t *testing.T) {
	cat := MustCatalog([]string{"x", "y", "z"})
	src := &fakeSource{counters: []uint64{1, 2, 3}}
	s := NewSampler(cat, src, 100)
	s.Take()
	row := make([]float64, cat.Len())
	allocs := testing.AllocsPerRun(100, func() {
		src.instr += 100
		src.cycles += 250
		src.counters[0] += 7
		if _, ok := s.TakeInto(row); !ok {
			t.Fatal("TakeInto produced nothing after baseline")
		}
	})
	if allocs != 0 {
		t.Fatalf("TakeInto allocates %v per sample, want 0", allocs)
	}
}

func TestExpandIntoZeroAlloc(t *testing.T) {
	const n = 115
	e := NewExpander(n)
	s := randomSample(n, 7)
	dst := make([]float64, e.Dim())
	allocs := testing.AllocsPerRun(100, func() { e.ExpandInto(dst, s) })
	if allocs != 0 {
		t.Fatalf("ExpandInto allocates %v per sample, want 0", allocs)
	}
}
