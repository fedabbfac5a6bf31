// Package experiments reproduces every table and figure of the paper's
// evaluation. Each driver returns a printable result structure; the
// evaxbench command and the repository's benchmarks regenerate the paper's
// rows and series from them. DESIGN.md maps experiment IDs to drivers.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"evax/internal/checkpoint"
	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/featureng"
	"evax/internal/gan"
	"evax/internal/isa"
	"evax/internal/runner"
)

// LabOptions sizes the shared experimental setup. Scale knobs trade
// fidelity for runtime; with the defaults, NewLab takes about 1.35 seconds
// on a two-core Xeon host with AVX2.
type LabOptions struct {
	Corpus dataset.CorpusOptions
	// GANEpochs trains the AM-GAN for this many passes.
	GANEpochs int
	// GANPerClass caps AM-GAN training samples per class.
	GANPerClass int
	// GenPerClass is how many adversarial samples the generator emits
	// per class for detector vaccination.
	GenPerClass int
	// TargetFPR tunes detector thresholds on benign training scores.
	TargetFPR float64
	Seed      int64
	// Jobs is the worker count for every simulator-backed campaign the lab
	// runs (corpus builds, k-fold retraining, fuzz and overhead sweeps):
	// 0 uses GOMAXPROCS, 1 is the sequential reference. Results are
	// index-addressed (see internal/runner), so every figure and table is
	// byte-identical across worker counts.
	Jobs int
	// Progress, when non-nil, receives each lab campaign's running
	// completion count (1-based). It is called from worker goroutines, so
	// it must be safe for concurrent use; the fault-injection tests use it
	// to kill a campaign at an exact point.
	Progress func(done int)
}

// DefaultLabOptions returns the standard experimental setup.
func DefaultLabOptions() LabOptions {
	return LabOptions{
		Corpus: dataset.DefaultCorpusOptions(),
		// Moderate adversarial-game length: the vaccination benefit
		// peaks well before Nash equilibrium (late-game generator
		// output drifts toward the unconditional mean and dilutes the
		// boundary-shaping value of the samples).
		GANEpochs:   12,
		GANPerClass: 30,
		GenPerClass: 60,
		TargetFPR:   0.01,
		Seed:        1,
	}
}

// QuickLabOptions returns a reduced setup for tests.
func QuickLabOptions() LabOptions {
	o := DefaultLabOptions()
	o.Corpus.Seeds = 2
	o.Corpus.MaxInstr = 40_000
	o.GANEpochs = 12
	o.GANPerClass = 25
	o.GenPerClass = 30
	return o
}

// Lab holds the expensive shared artifacts: the corpus, the trained AM-GAN,
// the mined security HPCs, and the trained detectors.
type Lab struct {
	Opts LabOptions
	DS   *dataset.Dataset

	// GAN is the AM-GAN trained over the EVAX base feature space.
	GAN      *gan.AMGAN
	GANTrace gan.TrainResult

	// Mined are the engineered security HPCs extracted from the trained
	// generator (Table I).
	Mined []featureng.ANDFeature

	// PerSpec is the baseline detector (106 features, real samples only).
	PerSpec *detect.Detector
	// EVAX is the vaccinated detector (145 features, real + generated).
	EVAX *detect.Detector

	// classOf maps GAN conditioning indices to ISA classes and back.
	classList []isa.Class
	classIdx  map[isa.Class]int

	// refs holds the benign reference runs of Figures 14 and 16.
	refs *refCache
}

// runnerOpts is the fan-out configuration shared by every lab campaign.
func (lab *Lab) runnerOpts() runner.Options {
	return runner.Options{Jobs: lab.Opts.Jobs}
}

// campaignOpts is runnerOpts plus progress reporting. Only the journaled
// top-level campaigns (the fig17 sweep, the fig19 folds) use it, so
// LabOptions.Progress counts campaign units — nested helper fan-outs inside
// a job do not inflate the count.
func (lab *Lab) campaignOpts() runner.Options {
	o := lab.runnerOpts()
	o.OnJobDone = lab.Opts.Progress
	return o
}

// NewLab builds the full pipeline: corpus → AM-GAN → feature engineering →
// vaccinated detector training → threshold tuning. The benign reference
// runs of Figures 14 and 16 need no detector, so when the lab has more than
// one worker they run in the background during training, which leaves a
// core idle; any not started when NewLab returns wait for the first figure.
func NewLab(o LabOptions) *Lab {
	lab, err := NewLabCtx(context.Background(), o, nil)
	if err != nil {
		// Unreachable: with a background context and no journal the corpus
		// build cannot fail (simulation panics re-raise).
		panic(err)
	}
	return lab
}

// NewLabCtx is NewLab with cooperative cancellation and optional
// checkpoint/resume of the corpus build — the lab's dominant cost. A killed
// build resumes from corpusJournal and trains on a bit-identical corpus.
// Training itself (GAN, detectors) is in-memory and fast; it restarts from
// the corpus on resume.
func NewLabCtx(ctx context.Context, o LabOptions, corpusJournal *checkpoint.Journal) (*Lab, error) {
	o.Corpus.Jobs = o.Jobs // one knob: the lab's worker count drives corpus fan-out too
	samples, _, err := dataset.CollectAllCtx(ctx, o.Corpus, corpusJournal)
	if err != nil {
		return nil, err
	}
	lab := &Lab{Opts: o, DS: dataset.New(samples), refs: &refCache{}}
	lab.indexClasses()
	yield := lab.overlapReferenceRuns()
	defer yield()
	lab.trainGAN()
	lab.mineFeatures()
	lab.trainDetectors()
	return lab, nil
}

// campaignKey identifies the lab's training configuration for figure-level
// checkpoint journals: a journal recorded under one lab setup must not be
// resumed into another.
func (lab *Lab) campaignKey() string {
	o := lab.Opts
	return fmt.Sprintf("lab|seed=%d,gan=%d/%d,gen=%d,fpr=%g|%s",
		o.Seed, o.GANEpochs, o.GANPerClass, o.GenPerClass, o.TargetFPR, o.Corpus.CampaignKey())
}

// Figure17Key is the checkpoint campaign key for the fig17 fuzz sweep.
func (lab *Lab) Figure17Key(seedsPerTool int) string {
	return fmt.Sprintf("fig17|seeds=%d|%s", seedsPerTool, lab.campaignKey())
}

// Figure19Key is the checkpoint campaign key for the fig19 k-fold driver.
func (lab *Lab) Figure19Key(only []isa.Class) string {
	names := make([]string, len(only))
	for i, c := range only {
		names[i] = c.String()
	}
	return fmt.Sprintf("fig19|folds=%s|%s", strings.Join(names, "+"), lab.campaignKey())
}

func (lab *Lab) indexClasses() {
	lab.classList = lab.DS.Classes()
	lab.classIdx = make(map[isa.Class]int, len(lab.classList))
	for i, c := range lab.classList {
		lab.classIdx[c] = i
	}
}

// ClassIndex returns the GAN conditioning index for a class (-1 if absent).
func (lab *Lab) ClassIndex(c isa.Class) int {
	if i, ok := lab.classIdx[c]; ok {
		return i
	}
	return -1
}

// baseVectors projects dataset samples (by index) into the plan's base
// feature space — one batch gather into a contiguous block.
func (lab *Lab) baseVectors(fs *detect.FeaturePlan, idx []int) ([][]float64, []bool, []int) {
	vecs := fs.GatherBatch(lab.DS, idx)
	labels := make([]bool, len(idx))
	classes := make([]int, len(idx))
	for k, i := range idx {
		s := &lab.DS.Samples[i]
		labels[k] = s.Malicious
		classes[k] = lab.classIdx[s.Class]
	}
	return vecs, labels, classes
}

func (lab *Lab) allIdx() []int {
	idx := make([]int, len(lab.DS.Samples))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// trainGAN fits the conditional AM-GAN over EVAX base vectors with a
// stratified per-class cap.
func (lab *Lab) trainGAN() {
	fs := detect.EVAXBase()
	rng := rand.New(rand.NewSource(lab.Opts.Seed + 7))
	perClass := map[int][]int{}
	for i := range lab.DS.Samples {
		c := lab.classIdx[lab.DS.Samples[i].Class]
		perClass[c] = append(perClass[c], i)
	}
	var idx []int
	for c := 0; c < len(lab.classList); c++ { // stable order: determinism
		members := perClass[c]
		perm := rng.Perm(len(members))
		n := lab.Opts.GANPerClass
		if n > len(members) {
			n = len(members)
		}
		for _, p := range perm[:n] {
			idx = append(idx, members[p])
		}
	}
	vecs, _, classes := lab.baseVectors(fs, idx)
	cfg := gan.DefaultConfig(fs.BaseDim(), len(lab.classList))
	cfg.Seed = lab.Opts.Seed
	cfg.GenHidden = []int{64, 48}
	lab.GAN = gan.New(cfg)
	lab.GANTrace = lab.GAN.Train(vecs, classes, lab.Opts.GANEpochs)
}

// mineFeatures extracts the engineered security HPCs from the trained
// generator (falling back to the paper's Table I list for any shortfall).
func (lab *Lab) mineFeatures() {
	fs := detect.EVAXBase()
	lab.Mined = featureng.Mine(lab.GAN.Generator(), 12, fs.FeatureOf)
	if len(lab.Mined) < 12 {
		for _, f := range detect.DefaultEngineered(fs) {
			if len(lab.Mined) >= 12 {
				break
			}
			dup := false
			for _, g := range lab.Mined {
				if g.A == f.A && g.B == f.B {
					dup = true
					break
				}
			}
			if !dup {
				lab.Mined = append(lab.Mined, f)
			}
		}
	}
}

// GeneratedAugmentation emits the vaccination set: per-class adversarial
// samples from the trained generator with their malicious labels.
func (lab *Lab) GeneratedAugmentation(perClass int) ([][]float64, []bool) {
	var vecs [][]float64
	var labels []bool
	for ci, c := range lab.classList {
		for _, v := range lab.GAN.GenerateFiltered(ci, perClass, 4) {
			vecs = append(vecs, v)
			labels = append(labels, c.Malicious())
		}
	}
	return vecs, labels
}

func (lab *Lab) trainDetectors() {
	idx := lab.allIdx()

	// Baseline PerSpectron: 106 features, real data only.
	psFS := detect.PerSpectron()
	lab.PerSpec = detect.NewPerceptron(lab.Opts.Seed, psFS)
	lab.PerSpec.Train(lab.DS, idx, detect.DefaultTrainOptions())

	// EVAX: 133 base + 12 engineered, vaccinated with generated samples.
	evFS := detect.EVAXBase()
	evFS.SetEngineered(lab.Mined)
	lab.EVAX = detect.NewPerceptron(lab.Opts.Seed, evFS)
	real, labels, _ := lab.baseVectors(evFS, idx)
	gen, genLabels := lab.GeneratedAugmentation(lab.Opts.GenPerClass)
	lab.EVAX.TrainVectors(append(real, gen...), append(labels, genLabels...), detect.DefaultTrainOptions())

	lab.tuneThreshold(lab.PerSpec)
	lab.tuneThreshold(lab.EVAX)
}

// benignTrainScores scores the benign slice of the training corpus through
// the detector's fused batch path.
func (lab *Lab) benignTrainScores(d *detect.Detector) []float64 {
	var idx []int
	for i := range lab.DS.Samples {
		if !lab.DS.Samples[i].Malicious {
			idx = append(idx, i)
		}
	}
	scores := make([]float64, len(idx))
	d.ScoreBatch(lab.DS, idx, scores)
	return scores
}

// tuneThresholdAt sets a detector's operating point from benign training
// scores at an explicit target FPR.
func (lab *Lab) tuneThresholdAt(d *detect.Detector, fpr float64) {
	d.TuneThresholdForFPR(lab.benignTrainScores(d), fpr)
}

// tuneThreshold sets a detector's operating point from benign training
// scores at the lab's target FPR.
func (lab *Lab) tuneThreshold(d *detect.Detector) {
	d.TuneThresholdForFPR(lab.benignTrainScores(d), lab.Opts.TargetFPR)
}

// TrainDetectorLike builds and trains a fresh detector with the same recipe
// as one of the lab's detectors but restricted to the given training
// indices — the k-fold experiments retrain per fold.
//
// kind: "perspectron" (real data only), "evax" (GAN-vaccinated; the GAN is
// retrained without the held-out class), or "pfuzzer" (PerSpectron hardened
// with fuzzer-generated samples supplied by the caller).
func (lab *Lab) TrainDetectorLike(kind string, trainIdx []int, extraVecs [][]float64, extraLabels []bool) *detect.Detector {
	switch kind {
	case "perspectron":
		fs := detect.PerSpectron()
		d := detect.NewPerceptron(lab.Opts.Seed, fs)
		d.Train(lab.DS, trainIdx, detect.DefaultTrainOptions())
		lab.tuneThreshold(d)
		return d
	case "pfuzzer":
		fs := detect.PerSpectron()
		d := detect.NewPerceptron(lab.Opts.Seed, fs)
		real, labels, _ := lab.baseVectors(fs, trainIdx)
		d.TrainVectors(append(real, extraVecs...), append(labels, extraLabels...), detect.DefaultTrainOptions())
		lab.tuneThreshold(d)
		return d
	case "evax":
		fs := detect.EVAXBase()
		vecs, labels, classes := lab.baseVectors(fs, trainIdx)
		cfg := gan.DefaultConfig(fs.BaseDim(), len(lab.classList))
		cfg.Seed = lab.Opts.Seed + 13
		cfg.GenHidden = []int{64, 48}
		g := gan.New(cfg)
		capSamples, capClasses := stratifiedCap(vecs, classes, lab.Opts.GANPerClass, lab.Opts.Seed)
		g.Train(capSamples, capClasses, lab.Opts.GANEpochs)
		mined := featureng.Mine(g.Generator(), 12, fs.FeatureOf)
		fs.SetEngineered(mined)
		d := detect.NewPerceptron(lab.Opts.Seed, fs)
		// Generate augmentation only for classes present in training.
		var gen [][]float64
		var genLabels []bool
		present := map[int]bool{}
		for _, c := range classes {
			present[c] = true
		}
		for ci := range lab.classList {
			if !present[ci] {
				continue
			}
			for _, v := range g.GenerateBatch(ci, lab.Opts.GenPerClass) {
				gen = append(gen, v)
				genLabels = append(genLabels, lab.classList[ci].Malicious())
			}
		}
		d.TrainVectors(append(vecs, gen...), append(labels, genLabels...), detect.DefaultTrainOptions())
		lab.tuneThreshold(d)
		return d
	}
	panic(fmt.Sprintf("experiments: unknown detector kind %q", kind))
}

func stratifiedCap(vecs [][]float64, classes []int, perClass int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed + 23))
	byClass := map[int][]int{}
	for i, c := range classes {
		byClass[c] = append(byClass[c], i)
	}
	maxClass := 0
	for c := range byClass {
		if c > maxClass {
			maxClass = c
		}
	}
	var outV [][]float64
	var outC []int
	for c := 0; c <= maxClass; c++ { // stable order: determinism
		members := byClass[c]
		perm := rng.Perm(len(members))
		n := perClass
		if n > len(members) {
			n = len(members)
		}
		for _, p := range perm[:n] {
			outV = append(outV, vecs[members[p]])
			outC = append(outC, c)
		}
	}
	return outV, outC
}
