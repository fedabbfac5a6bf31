package detect

import (
	"math"
	"testing"

	"evax/internal/hpc"
	"evax/internal/kernel"
	"evax/internal/sim"
)

// TestCompileBackendSelects: the perceptron compiles to the fused kernel,
// a deep detector to the network backend; both report the catalog width
// and the detector's threshold, and clones score independently.
func TestCompileBackendSelects(t *testing.T) {
	fs := EVAXBase()
	fs.SetEngineered(DefaultEngineered(fs))
	rawDim := sim.CounterCatalog().Len()
	maxima := make([]float64, hpc.DerivedSpaceSize(rawDim))
	for i := range maxima {
		maxima[i] = float64(i%5 + 1)
	}
	raw := func(k int) []float64 {
		r := make([]float64, rawDim)
		for j := range r {
			r[j] = float64((k*13 + j*3) % 41)
		}
		return r
	}

	if _, ok := CompileBackend(NewPerceptron(1, fs), maxima).(*kernel.Scorer); !ok {
		t.Fatal("perceptron did not compile to the fused kernel")
	}
	deep := NewDeep(2, fs, 2, 6)
	deep.Threshold = 0.42
	be := CompileBackend(deep, maxima)
	if _, ok := be.(*netBackend); !ok {
		t.Fatalf("deep detector compiled to %T, want the network backend", be)
	}
	if be.RawDim() != rawDim || be.Threshold() != 0.42 {
		t.Fatalf("network backend: rawDim %d threshold %v", be.RawDim(), be.Threshold())
	}

	// Interleaving two clones must not disturb either one's scores.
	a, b := be.CloneBackend(), be.CloneBackend()
	wantA := be.ScoreRaw(raw(1), 2000, 3000)
	wantB := be.ScoreRaw(raw(2), 2000, 3000)
	for i := 0; i < 3; i++ {
		gotA, gotB := a.ScoreRaw(raw(1), 2000, 3000), b.ScoreRaw(raw(2), 2000, 3000)
		if math.Float64bits(gotA) != math.Float64bits(wantA) || math.Float64bits(gotB) != math.Float64bits(wantB) {
			t.Fatalf("clone scores %v/%v, want %v/%v", gotA, gotB, wantA, wantB)
		}
	}
}
