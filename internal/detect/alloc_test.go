package detect

import (
	"testing"

	"evax/internal/hpc"
	"evax/internal/sim"
)

// The steady-state scoring path — gather base features, extend with
// engineered features, forward through the network, or the fused kernel a
// trained detector carries — must not allocate: the online defense
// controller calls it once per sampling window.
func TestScoreZeroAlloc(t *testing.T) {
	fs := EVAXBase()
	fs.SetEngineered(DefaultEngineered(fs))
	d := NewPerceptron(1, fs)
	derived := make([]float64, hpc.DerivedSpaceSize(sim.CounterCatalog().Len()))
	for i := range derived {
		derived[i] = float64(i%7) / 7
	}
	d.Score(derived) // warm up the lazy scratch buffer
	if n := testing.AllocsPerRun(100, func() { d.Score(derived) }); n != 0 {
		t.Errorf("Score allocates %v times per call, want 0", n)
	}
	base := fs.Base(derived)
	d.ScoreBase(base)
	if n := testing.AllocsPerRun(100, func() { d.ScoreBase(base) }); n != 0 {
		t.Errorf("ScoreBase allocates %v times per call, want 0", n)
	}
	d.compileKernel()
	if n := testing.AllocsPerRun(100, func() { d.Score(derived) }); n != 0 {
		t.Errorf("kernel Score allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.ScoreBase(base) }); n != 0 {
		t.Errorf("kernel ScoreBase allocates %v times per call, want 0", n)
	}
}

// Clone must share the immutable plan and give the clone its own scratch,
// so concurrent clones score without allocating or racing.
func TestCloneSharesPlanScoresZeroAlloc(t *testing.T) {
	fs := EVAXBase()
	fs.SetEngineered(DefaultEngineered(fs))
	d := NewPerceptron(2, fs)
	c := d.Clone()
	if c.Plan != d.Plan {
		t.Fatal("Clone copied the plan instead of sharing it")
	}
	derived := make([]float64, hpc.DerivedSpaceSize(sim.CounterCatalog().Len()))
	if c.Score(derived) != d.Score(derived) {
		t.Fatal("clone scores differ")
	}
	c.Score(derived)
	if n := testing.AllocsPerRun(100, func() { c.Score(derived) }); n != 0 {
		t.Errorf("clone Score allocates %v times per call, want 0", n)
	}
}

// DefaultEngineered resolves feature names through the plan's compiled
// index — regression guard for the per-call position-map rebuild it used
// to do, and for the name→index agreement itself.
func TestDefaultEngineeredResolvesViaPlanIndex(t *testing.T) {
	fs := EVAXBase()
	feats := DefaultEngineered(fs)
	if len(feats) != 12 {
		t.Fatalf("resolved %d engineered features, want 12", len(feats))
	}
	names := fs.Names()
	for _, f := range feats {
		// Indices must round-trip back to the two names in the feature.
		if fs.Index(names[f.A]) != f.A || fs.Index(names[f.B]) != f.B {
			t.Errorf("feature %q indexes (%d,%d) don't round-trip", f.Name, f.A, f.B)
		}
	}
	// The compiled index must agree with a linear scan (last duplicate
	// wins, matching the map-build order it replaced).
	for want, n := range names {
		got := fs.Index(n)
		last := want
		for j := want + 1; j < len(names); j++ {
			if names[j] == n {
				last = j
			}
		}
		if got != last {
			t.Errorf("Index(%q) = %d, want %d", n, got, last)
		}
	}
	if fs.Index("no.suchCounter") != -1 {
		t.Error("Index of unknown name should be -1")
	}
	// Index lookups are map hits, not scans that allocate.
	if n := testing.AllocsPerRun(100, func() { fs.Index("lsq.forwLoads") }); n != 0 {
		t.Errorf("Index allocates %v times per call, want 0", n)
	}
}
