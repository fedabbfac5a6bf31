package defense

import (
	"os"
	"testing"

	"evax/internal/attacks"
	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/sim"
	"evax/internal/workload"
)

// trainFlagger builds a small corpus and detector for adapter tests.
func trainFlagger(t *testing.T) *DetectorFlagger {
	t.Helper()
	return NewDetectorFlagger(trainDetector(t))
}

// trainDetector trains and tunes the detector trainFlagger wraps.
func trainDetector(t *testing.T) (*detect.Detector, *dataset.Dataset) {
	t.Helper()
	var samples []dataset.Sample
	cfg := sim.DefaultConfig()
	for _, w := range workload.All()[:5] {
		samples = append(samples, dataset.Collect(cfg, w.Build(1, 2), 2000, 30_000)...)
	}
	for _, a := range attacks.All()[:8] {
		samples = append(samples, dataset.Collect(cfg, a.Build(11, 20), 2000, 30_000)...)
	}
	ds := dataset.New(samples)
	fs := detect.EVAXBase()
	fs.SetEngineered(detect.DefaultEngineered(fs))
	d := detect.NewPerceptron(1, fs)
	idx := make([]int, len(ds.Samples))
	for i := range idx {
		idx[i] = i
	}
	d.Train(ds, idx, detect.DefaultTrainOptions())
	var benign []float64
	for i := range ds.Samples {
		if !ds.Samples[i].Malicious {
			benign = append(benign, d.Score(ds.Samples[i].Derived))
		}
	}
	d.TuneThresholdForFPR(benign, 0.02)
	return d, ds
}

func TestDetectorFlaggerEndToEnd(t *testing.T) {
	fl := trainFlagger(t)

	dcfg := DefaultConfig(sim.PolicyInvisiSpecSpectre)
	dcfg.SampleInterval = 1000

	// An attack run must be flagged frequently.
	atk := RunProgram(sim.DefaultConfig(), attacks.SpectrePHT(77, 20), fl, dcfg, 2_000_000)
	if atk.Windows == 0 {
		t.Fatal("no windows sampled")
	}
	if atk.FlagRate() < 0.5 {
		t.Fatalf("attack flagged in only %.0f%% of windows", 100*atk.FlagRate())
	}
	if atk.SecureInstr == 0 {
		t.Fatal("mitigation never engaged on the attack")
	}

	// A benign run must stay mostly unflagged.
	ben := RunProgram(sim.DefaultConfig(), workload.GeneSeq(77, 3), fl, dcfg, 2_000_000)
	if ben.Windows == 0 {
		t.Fatal("no benign windows sampled")
	}
	if ben.FlagRate() > 0.2 {
		t.Fatalf("benign program flagged in %.0f%% of windows", 100*ben.FlagRate())
	}
}

func TestDetectorFlaggerReducesLeakage(t *testing.T) {
	fl := trainFlagger(t)
	dcfg := DefaultConfig(sim.PolicyInvisiSpecSpectre)
	dcfg.SampleInterval = 500
	unprot := RunProgram(sim.DefaultConfig(), attacks.SpectrePHT(77, 20), NeverOn, dcfg, 2_000_000)
	prot := RunProgram(sim.DefaultConfig(), attacks.SpectrePHT(77, 20), fl, dcfg, 2_000_000)
	if unprot.LeakedTransient == 0 {
		t.Fatal("unprotected attack did not leak")
	}
	if prot.LeakedTransient >= unprot.LeakedTransient/2 {
		t.Fatalf("detector-gated run leaked %d of %d — gating ineffective",
			prot.LeakedTransient, unprot.LeakedTransient)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	det, ds := trainDetector(t)
	fl := NewDetectorFlagger(det, ds)
	path := t.TempDir() + "/bundle.json"
	if err := SaveBundle(path, det, ds); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotDet, gotDS, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	got := NewDetectorFlagger(gotDet, gotDS)
	// The decoded flagger must agree with the original on live windows.
	dcfg := DefaultConfig(sim.PolicyInvisiSpecSpectre)
	dcfg.SampleInterval = 1000
	a := RunProgram(sim.DefaultConfig(), attacks.SpectrePHT(77, 10), fl, dcfg, 1_000_000)
	b := RunProgram(sim.DefaultConfig(), attacks.SpectrePHT(77, 10), got, dcfg, 1_000_000)
	if a.Flags != b.Flags || a.Windows != b.Windows {
		t.Fatalf("loaded bundle diverges: %d/%d vs %d/%d flags",
			a.Flags, a.Windows, b.Flags, b.Windows)
	}
}

// TestLoadBundleRejectsGarbage: bundle bytes that are not JSON, or carry
// neither a detector nor maxima, never decode. (A missing bundle file is
// engine.Load's concern, covered by its own tests.)
func TestLoadBundleRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeBundle([]byte("{oops")); err == nil {
		t.Fatal("garbage bundle accepted")
	}
	if _, _, err := DecodeBundle([]byte(`{"detector":null,"maxima":[]}`)); err == nil {
		t.Fatal("empty bundle accepted")
	}
}
