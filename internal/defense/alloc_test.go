package defense

import (
	"math"
	"testing"

	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/hpc"
	"evax/internal/sim"
)

// FlagWindow runs once per sampling window inside the defense controller;
// the backend compiles in NewDetectorFlagger, so no window may allocate.
func TestFlagWindowZeroAlloc(t *testing.T) {
	cat := sim.CounterCatalog()
	derivedDim := hpc.DerivedSpaceSize(cat.Len())
	fs := detect.EVAXBase()
	fs.SetEngineered(detect.DefaultEngineered(fs))
	d := detect.NewPerceptron(1, fs)
	max := make([]float64, derivedDim)
	for i := range max {
		max[i] = float64(i%9) + 1
	}
	fl := NewDetectorFlagger(d, dataset.FromMaxima(max))
	s := hpc.Sample{Values: make([]float64, cat.Len()), Instructions: 2000, Cycles: 4000}
	for i := range s.Values {
		s.Values[i] = float64(i % 13)
	}
	if n := testing.AllocsPerRun(100, func() { fl.FlagWindow(s) }); n != 0 {
		t.Errorf("FlagWindow allocates %v times per window, want 0", n)
	}
}

// Replay's no-flag path scores every recorded window and returns the
// recording: the figure drivers take it once per detector per workload, so
// it allocates nothing.
func TestReplayNoFlagZeroAlloc(t *testing.T) {
	cfg, prog, dcfg := sim.DefaultConfig(), benignProg(), replayConfig(sim.PolicyFenceAfterBranch)
	rec := Record(cfg, prog, dcfg, replayInstr)
	fl := testFlagger(math.Inf(1))
	if n := testing.AllocsPerRun(100, func() { Replay(rec, cfg, prog, fl, dcfg, replayInstr) }); n != 0 {
		t.Errorf("Replay without a flag allocates %v times, want 0", n)
	}
}
