package engine

import (
	"math"
	"strings"
	"testing"

	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/hpc"
	"evax/internal/sim"
)

// TestDeepDetectorGeneration: a multi-layer detector (Figure 20's study
// arm) has no fused kernel, so it scores through the network. It must
// still load as a float generation whose scorer and flagger reproduce
// detector.Score over the expanded, normalized window bit for bit and
// allocation-free, and the quantized backend must refuse it.
func TestDeepDetectorGeneration(t *testing.T) {
	fs := detect.EVAXBase()
	fs.SetEngineered(detect.DefaultEngineered(fs))
	det := detect.NewDeep(5, fs, 3, 8)
	rawDim := sim.CounterCatalog().Len()
	maxima := make([]float64, hpc.DerivedSpaceSize(rawDim))
	for i := range maxima {
		maxima[i] = float64(i%7 + 1)
	}
	ds := dataset.FromMaxima(maxima)

	g, err := New(det, ds, "")
	if err != nil {
		t.Fatal(err)
	}
	if g.Backend() != BackendFloat || g.RawDim() != 115 || g.RawDim() != rawDim {
		t.Fatalf("deep generation: backend %q rawDim %d, want %q and 115", g.Backend(), g.RawDim(), BackendFloat)
	}

	// Reference: the network over the expanded, normalized derived row.
	ref := det.Clone()
	exp := hpc.NewExpander(rawDim)
	derived := make([]float64, exp.Dim())
	corpus := testCorpus(9, rawDim)
	want := make([]float64, len(corpus))
	raw := make([]float64, 0, len(corpus)*rawDim)
	instr := make([]uint64, len(corpus))
	cycles := make([]uint64, len(corpus))
	for i := range corpus {
		s := &corpus[i]
		exp.ExpandInto(derived, hpc.Sample{Values: s.Raw, Instructions: s.Instructions, Cycles: s.Cycles})
		ds.NormalizeInPlace(derived)
		want[i] = ref.Score(derived)
		raw = append(raw, s.Raw...)
		instr[i], cycles[i] = s.Instructions, s.Cycles
	}

	sc := g.NewScorer()
	if sc.Threshold() != det.Threshold {
		t.Fatalf("scorer threshold %v, want %v", sc.Threshold(), det.Threshold)
	}
	batch := make([]float64, len(corpus))
	sc.ScoreBatch(raw, instr, cycles, batch)
	fl := g.Flagger()
	for i := range corpus {
		s := &corpus[i]
		got := sc.Score(s.Raw, s.Instructions, s.Cycles)
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: Score %v, want %v", i, got, want[i])
		}
		if math.Float64bits(batch[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: ScoreBatch %v, want %v", i, batch[i], want[i])
		}
		win := hpc.Sample{Values: s.Raw, Instructions: s.Instructions, Cycles: s.Cycles}
		if got, want := fl.FlagWindow(win), want[i] >= det.Threshold; got != want {
			t.Fatalf("row %d: FlagWindow %v, want %v", i, got, want)
		}
	}

	s := &corpus[0]
	win := hpc.Sample{Values: s.Raw, Instructions: s.Instructions, Cycles: s.Cycles}
	if n := testing.AllocsPerRun(50, func() { sc.Score(s.Raw, s.Instructions, s.Cycles) }); n != 0 {
		t.Errorf("deep Score allocates %.1f times per window, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { fl.FlagWindow(win) }); n != 0 {
		t.Errorf("deep FlagWindow allocates %.1f times per window, want 0", n)
	}

	if _, err := New(det, ds, BackendQuantized); err == nil || !strings.Contains(err.Error(), "quantized backend") {
		t.Fatalf("quantized deep generation: err %v, want a quantized-backend refusal", err)
	}
}
