package defense

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/hpc"
	"evax/internal/sim"
	"evax/internal/workload"
)

// replayConfig samples often enough for a short run to hold a dozen
// windows, with a secure window that expires mid-run after a flag.
func replayConfig(policy sim.Policy) Config {
	dcfg := DefaultConfig(policy)
	dcfg.SampleInterval = 2_500
	dcfg.SecureWindow = 6_000
	return dcfg
}

const replayInstr = 30_000

var allPolicies = []sim.Policy{
	sim.PolicyNone,
	sim.PolicyFenceAfterBranch,
	sim.PolicyFenceBeforeLoad,
	sim.PolicyInvisiSpecSpectre,
	sim.PolicyInvisiSpecFuturistic,
}

// flagAt is a planted pure flagger: it flags exactly the window starting at
// instruction start. Windows up to the first flag are the recording's, so
// its first flag is the recorded window with that start.
func flagAt(start uint64) Flagger {
	return FlaggerFunc(func(s hpc.Sample) bool { return s.InstrStart == start })
}

// TestRecordMatchesNeverOn: a recording's Result is the NeverOn run's.
func TestRecordMatchesNeverOn(t *testing.T) {
	dcfg := replayConfig(sim.PolicyFenceAfterBranch)
	rec := Record(sim.DefaultConfig(), benignProg(), dcfg, replayInstr)
	want := RunProgram(sim.DefaultConfig(), benignProg(), NeverOn, dcfg, replayInstr)
	if !reflect.DeepEqual(rec.Result(), want) {
		t.Fatal("recording's Result differs from the NeverOn run")
	}
	if len(rec.windows) != want.Windows || len(rec.windows) < 8 {
		t.Fatalf("recorded %d windows, run scored %d (want at least 8)", len(rec.windows), want.Windows)
	}
}

// TestReplayEquivalence: for every workload, every secure policy and a
// planted flagger whose first flag is at no window, the first, a middle or
// the last one, the gated run returns RunProgram's Result exactly. One
// recording per workload serves every policy.
func TestReplayEquivalence(t *testing.T) {
	cfg := sim.DefaultConfig()
	for wi, w := range workload.All() {
		prog := w.Build(int64(wi)*37+901, 4)
		rec := Record(cfg, prog, replayConfig(sim.PolicyNone), replayInstr)
		n := len(rec.windows)
		if n < 4 {
			t.Fatalf("%s: only %d windows recorded", w.Name, n)
		}
		for _, at := range []int{-1, 0, n / 2, n - 1} {
			start := uint64(math.MaxUint64)
			if at >= 0 {
				start = rec.windows[at].InstrStart
			}
			for _, pol := range allPolicies {
				name := fmt.Sprintf("%s/flag@%d/%s", w.Name, at, pol)
				dcfg := replayConfig(pol)
				want := RunProgram(cfg, prog, flagAt(start), dcfg, replayInstr)
				if got := rec.Gate(flagAt(start)).Run(dcfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the gated run differs from RunProgram", name)
				}
				if g := rec.Gate(flagAt(start)); g.FirstFlag() != at {
					t.Fatalf("%s: first flag at window %d, want %d", name, g.FirstFlag(), at)
				}
				if at >= 0 && want.Flags == 0 {
					t.Fatalf("%s: planted flag never fired", name)
				}
			}
		}
	}
}

// TestReplayRejectsAnotherRun: a recording gates runs only at the sampling
// cadence and quantum it recorded; either difference panics.
func TestReplayRejectsAnotherRun(t *testing.T) {
	dcfg := replayConfig(sim.PolicyFenceAfterBranch)
	rec := Record(sim.DefaultConfig(), benignProg(), dcfg, replayInstr)

	slowQuantum, otherInterval := dcfg, dcfg
	slowQuantum.Quantum *= 2
	otherInterval.SampleInterval *= 2
	cases := []struct {
		name string
		dcfg Config
	}{
		{"quantum", slowQuantum},
		{"interval", otherInterval},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a gated run with a different %s did not panic", c.name)
				}
			}()
			rec.Gate(NeverOn).Run(c.dcfg)
		}()
	}
}

// testFlagger wraps an untrained EVAX-shaped perceptron at threshold.
func testFlagger(threshold float64) *DetectorFlagger {
	fs := detect.EVAXBase()
	fs.SetEngineered(detect.DefaultEngineered(fs))
	d := detect.NewPerceptron(5, fs)
	d.Threshold = threshold
	maxima := make([]float64, hpc.DerivedSpaceSize(sim.CounterCatalog().Len()))
	for i := range maxima {
		maxima[i] = float64(1000 * (i%7 + 1))
	}
	return NewDetectorFlagger(d, dataset.FromMaxima(maxima))
}

// medianFlagger is testFlagger at the median score over rec's windows, so
// its verdicts are mixed.
func medianFlagger(rec *Recording) *DetectorFlagger {
	be := testFlagger(0).be
	scores := make([]float64, len(rec.windows))
	for i, s := range rec.windows {
		scores[i] = be.ScoreRaw(s.Values, s.Instructions, s.Cycles)
	}
	sort.Float64s(scores)
	return testFlagger(scores[len(scores)/2])
}

// TestDetectorFlaggerIsPure: the Flagger contract Gate.Run relies on. A
// DetectorFlagger gives each recorded window the same verdict scored
// forwards, in reverse, and a second time.
func TestDetectorFlaggerIsPure(t *testing.T) {
	rec := Record(sim.DefaultConfig(), workload.AStar(3, 4), replayConfig(sim.PolicyNone), 60_000)
	fl := medianFlagger(rec)
	n := len(rec.windows)
	verdicts := func(order func(k int) int) []bool {
		out := make([]bool, n)
		for k := 0; k < n; k++ {
			i := order(k)
			out[i] = fl.FlagWindow(rec.windows[i])
		}
		return out
	}
	forward := verdicts(func(k int) int { return k })
	flagged := 0
	for _, v := range forward {
		if v {
			flagged++
		}
	}
	if flagged == 0 || flagged == n {
		t.Fatalf("%d of %d windows flagged; the check needs mixed verdicts", flagged, n)
	}
	if reverse := verdicts(func(k int) int { return n - 1 - k }); !reflect.DeepEqual(forward, reverse) {
		t.Fatal("verdicts depend on scoring order")
	}
	if again := verdicts(func(k int) int { return k }); !reflect.DeepEqual(forward, again) {
		t.Fatal("verdicts change when windows are scored twice")
	}
}
