package detect

import (
	"math/rand"
	"testing"

	"evax/internal/dataset"
	"evax/internal/hpc"
	"evax/internal/isa"
	"evax/internal/sim"
)

func TestFeatureSetSizes(t *testing.T) {
	ps := PerSpectron()
	if ps.BaseDim() != 106 {
		t.Fatalf("PerSpectron dim = %d, want 106", ps.BaseDim())
	}
	ev := EVAXBase()
	if ev.BaseDim() != 133 {
		t.Fatalf("EVAX base dim = %d, want 133", ev.BaseDim())
	}
	ev.SetEngineered(DefaultEngineered(ev))
	if len(ev.Engineered()) != 12 {
		t.Fatalf("engineered features = %d, want 12", len(ev.Engineered()))
	}
	if ev.Dim() != 145 {
		t.Fatalf("EVAX dim = %d, want 145", ev.Dim())
	}
}

func TestPerSpectronExcludesDRAMAndSpecBuf(t *testing.T) {
	ps := PerSpectron()
	for _, n := range ps.Names() {
		if len(n) > 5 && n[:5] == "dram." {
			t.Fatalf("PerSpectron monitors %s", n)
		}
		if n == "dcache.SpecFills" {
			t.Fatal("PerSpectron monitors InvisiSpec counters")
		}
	}
}

func TestFeatureIndicesValid(t *testing.T) {
	derivedDim := hpc.DerivedSpaceSize(sim.CounterCatalog().Len())
	for _, fs := range []*FeaturePlan{PerSpectron(), EVAXBase()} {
		if len(fs.Indices()) != len(fs.Names()) {
			t.Fatalf("%s: indices/names mismatch", fs.Name())
		}
		seen := map[int]bool{}
		for _, idx := range fs.Indices() {
			if idx < 0 || idx >= derivedDim {
				t.Fatalf("%s: index %d out of derived space", fs.Name(), idx)
			}
			if seen[idx] {
				t.Fatalf("%s: duplicate index %d", fs.Name(), idx)
			}
			seen[idx] = true
		}
	}
}

func TestVectorSelection(t *testing.T) {
	fs := NewPlan("t", []int{2, 0}, []string{"a", "b"})
	derived := []float64{10, 20, 30}
	base := fs.Base(derived)
	if base[0] != 30 || base[1] != 10 {
		t.Fatalf("base = %v", base)
	}
	fs.SetEngineered(DefaultEngineered(fs)) // none resolve: names don't match
	if len(fs.Engineered()) != 0 {
		t.Fatal("engineered resolved against bogus names")
	}
	v := make([]float64, fs.Dim())
	fs.GatherVector(v, derived)
	if len(v) != 2 || v[0] != 30 || v[1] != 10 {
		t.Fatalf("vector = %v", v)
	}
}

func TestFeatureOf(t *testing.T) {
	fs := EVAXBase()
	i, n := fs.FeatureOf(0)
	if i != 0 || n != fs.Names()[0] {
		t.Fatal("FeatureOf broken")
	}
	if i, _ := fs.FeatureOf(-1); i != -1 {
		t.Fatal("negative index accepted")
	}
	if i, _ := fs.FeatureOf(10_000); i != -1 {
		t.Fatal("overflow index accepted")
	}
}

// synthDataset fabricates a linearly separable corpus in the derived space:
// malicious samples elevate the squashed-loads and flush counters.
func synthDataset(n int) *dataset.Dataset {
	cat := sim.CounterCatalog()
	dim := hpc.DerivedSpaceSize(cat.Len())
	sqIdx := cat.MustIndex("lsq.squashedLoads") * int(hpc.NumDerivedKinds)
	flIdx := cat.MustIndex("dcache.Flushes") * int(hpc.NumDerivedKinds)
	rng := rand.New(rand.NewSource(2))
	var samples []dataset.Sample
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := 0; j < dim; j += 11 {
			v[j] = rng.Float64() * 10
		}
		mal := i%2 == 0
		if mal {
			v[sqIdx] = 50 + rng.Float64()*50
			v[flIdx] = 30 + rng.Float64()*30
		} else {
			v[sqIdx] = rng.Float64() * 5
			v[flIdx] = rng.Float64() * 3
		}
		class := isa.ClassBenign
		if mal {
			class = isa.ClassMeltdown
		}
		samples = append(samples, dataset.Sample{
			Derived:   v,
			Class:     class,
			Malicious: mal,
			Phases:    1 << uint(isa.PhaseLeak),
		})
	}
	return dataset.New(samples)
}

func TestPerceptronLearnsSyntheticCorpus(t *testing.T) {
	ds := synthDataset(300)
	split := ds.RandomSplit(1, 0.7)
	fs := EVAXBase()
	fs.SetEngineered(DefaultEngineered(fs))
	d := NewPerceptron(1, fs)
	d.Train(ds, split.Train, DefaultTrainOptions())
	c := d.Evaluate(ds, split.Test)
	if c.Accuracy() < 0.95 {
		t.Fatalf("accuracy %.3f on separable corpus", c.Accuracy())
	}
}

func TestDeepDetectorShape(t *testing.T) {
	fs := PerSpectron()
	d := NewDeep(1, fs, 16, 32)
	if got := len(d.Net.Layers); got != 17 {
		t.Fatalf("layers = %d, want 17", got)
	}
	if d.Net.InputSize() != fs.Dim() {
		t.Fatal("input size mismatch")
	}
}

func TestThresholdTuning(t *testing.T) {
	d := &Detector{Threshold: 0.5}
	benign := []float64{0.1, 0.2, 0.3, 0.4, 0.9}
	d.TuneThresholdForFPR(benign, 0.2) // allow 1 of 5 false positives
	fp := 0
	for _, s := range benign {
		if s >= d.Threshold {
			fp++
		}
	}
	if fp > 1 {
		t.Fatalf("fp = %d at tuned threshold %v", fp, d.Threshold)
	}
	// Zero target: threshold above every benign score.
	d.TuneThresholdForFPR(benign, 0)
	if 0.9 >= d.Threshold {
		t.Fatalf("threshold %v not above max benign", d.Threshold)
	}
	d.TuneThresholdForFPR(nil, 0) // must not panic
}

func TestTrainVectorsBalancesClasses(t *testing.T) {
	// 10:1 imbalance: an unweighted model would collapse to the majority
	// class; the balanced trainer must still catch positives.
	fs := NewPlan("tiny", []int{0, 1}, []string{"a", "b"})
	rng := rand.New(rand.NewSource(3))
	var base [][]float64
	var labels []bool
	for i := 0; i < 440; i++ {
		mal := i%11 == 0
		x := []float64{rng.Float64() * 0.3, rng.Float64() * 0.3}
		if mal {
			x[0] = 0.7 + rng.Float64()*0.3
		}
		base = append(base, x)
		labels = append(labels, mal)
	}
	d := NewPerceptron(2, fs)
	d.TrainVectors(base, labels, DefaultTrainOptions())
	caught, totalMal := 0, 0
	for i, x := range base {
		if labels[i] {
			totalMal++
			if d.FlagBase(x) {
				caught++
			}
		}
	}
	if caught < totalMal*8/10 {
		t.Fatalf("caught %d/%d positives under imbalance", caught, totalMal)
	}
}

func TestScoresAlignment(t *testing.T) {
	ds := synthDataset(40)
	fs := EVAXBase()
	d := NewPerceptron(1, fs)
	idx := []int{0, 1, 2}
	scores, labels := d.Scores(ds, idx)
	if len(scores) != 3 || len(labels) != 3 {
		t.Fatal("scores misaligned")
	}
	for k, i := range idx {
		if labels[k] != ds.Samples[i].Malicious {
			t.Fatal("label misaligned")
		}
	}
}

func TestTrainEmptySafe(t *testing.T) {
	d := NewPerceptron(1, PerSpectron())
	d.TrainVectors(nil, nil, DefaultTrainOptions())
}

func TestMonotoneTraining(t *testing.T) {
	fs := NewPlan("m", []int{0, 1, 2}, []string{"a", "b", "c"})
	rng := rand.New(rand.NewSource(6))
	var base [][]float64
	var labels []bool
	for i := 0; i < 200; i++ {
		mal := i%2 == 0
		x := []float64{rng.Float64() * 0.2, rng.Float64(), rng.Float64()}
		if mal {
			x[0] = 0.7 + rng.Float64()*0.3
		}
		base = append(base, x)
		labels = append(labels, mal)
	}
	opts := DefaultTrainOptions()
	opts.Monotone = true
	d := NewPerceptron(3, fs)
	d.TrainVectors(base, labels, opts)
	for _, l := range d.Net.Layers {
		for o := range l.W {
			for i := range l.W[o] {
				if l.W[o][i] < 0 {
					t.Fatalf("monotone training left negative weight %v", l.W[o][i])
				}
			}
		}
	}
	// Still accurate on the separable dimension.
	correct := 0
	for i, x := range base {
		if d.FlagBase(x) == labels[i] {
			correct++
		}
	}
	if correct < 180 {
		t.Fatalf("monotone detector accuracy %d/200", correct)
	}
}

func TestScoreBaseAndVectorAgree(t *testing.T) {
	fs := EVAXBase()
	fs.SetEngineered(DefaultEngineered(fs))
	d := NewPerceptron(9, fs)
	d.compileKernel() // as training would: Score and ScoreBase take the kernel
	rng := rand.New(rand.NewSource(8))
	derived := make([]float64, hpc.DerivedSpaceSize(sim.CounterCatalog().Len()))
	for i := range derived {
		derived[i] = rng.Float64()
	}
	if d.Score(derived) != d.ScoreBase(fs.Base(derived)) {
		t.Fatal("Score and ScoreBase disagree")
	}
	v := make([]float64, fs.Dim())
	fs.GatherVector(v, derived)
	if d.ScoreVector(v) != d.Score(derived) {
		t.Fatal("ScoreVector and Score disagree")
	}
}
