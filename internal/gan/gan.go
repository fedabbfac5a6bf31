// Package gan implements the paper's AM-GAN (Asymmetric Model GAN): a deep
// conditional generator paired with a shallow discriminator shaped like the
// hardware detector. Training follows the algorithm of the paper's Figure 4:
// the discriminator learns to accept real (sample, label) pairs and reject
// generated or mismatched pairs; the generator learns — from noise, a class
// label and the discriminator's gradient — to emit microarchitectural
// feature vectors indistinguishable from real attack samples of that class.
//
// Generated samples are counter-value vectors, not code: per the paper's
// ethics position they harden detectors without handing attackers a
// weaponizable exploit generator.
package gan

import (
	"math/rand"
	"sort"

	"evax/internal/gram"
	"evax/internal/ml"
)

// Config sizes the AM-GAN.
type Config struct {
	NoiseDim   int   // paper: the noise vector matches the 145 features
	FeatureDim int   // microarchitectural feature dimensionality
	NumClasses int   // conditioning labels (attack types + benign)
	GenHidden  []int // generator hidden layer widths (deep)
	DiscHidden []int // discriminator hidden widths (shallow/HW-like)
	LR         float64
	Momentum   float64
	// ClassGain scales the one-hot conditioning inputs so the class
	// signal is not drowned by the high-dimensional noise vector.
	ClassGain float64
	// ReconWeight adds a supervised reconstruction anchor to the
	// generator (pix2pix-style): G(z, c) is also pulled toward real
	// samples of class c, which keeps the conditional structure from
	// collapsing when the discriminator wins the adversarial game.
	ReconWeight float64
	Seed        int64
}

// DefaultConfig mirrors the paper's asymmetry: a deep generator and a
// single-layer (perceptron-like) discriminator.
func DefaultConfig(featureDim, numClasses int) Config {
	return Config{
		NoiseDim:   featureDim,
		FeatureDim: featureDim,
		NumClasses: numClasses,
		GenHidden:  []int{96, 96, 64},
		// One small hidden layer: the conditional matching task needs
		// feature-label interaction terms a purely linear model cannot
		// express; D stays shallow relative to the deep generator (the
		// AM-GAN asymmetry).
		DiscHidden:  []int{16},
		LR:          0.02,
		Momentum:    0.5,
		ClassGain:   3,
		ReconWeight: 0.5,
		Seed:        1,
	}
}

// AMGAN is the trained pair.
type AMGAN struct {
	cfg Config
	// G maps [noise | one-hot class] -> feature vector in [0,1].
	G *ml.Network
	// D maps [features | one-hot class] -> probability the pair is a
	// real, matching sample.
	D   *ml.Network
	rng *rand.Rand

	noise []float64
	gin   []float64
	din   []float64

	// TrainStep scratch: loss gradients and the constant BCE targets.
	grad  []float64
	rgrad []float64
	ones  []float64
	zeros []float64
}

// New constructs an untrained AM-GAN.
func New(cfg Config) *AMGAN {
	gSizes := append([]int{cfg.NoiseDim + cfg.NumClasses}, cfg.GenHidden...)
	gSizes = append(gSizes, cfg.FeatureDim)
	dSizes := append([]int{cfg.FeatureDim + cfg.NumClasses}, cfg.DiscHidden...)
	dSizes = append(dSizes, 1)
	return &AMGAN{
		cfg:   cfg,
		G:     ml.New(cfg.Seed, gSizes, ml.LeakyReLU, ml.Sigmoid),
		D:     ml.New(cfg.Seed+1, dSizes, ml.LeakyReLU, ml.Sigmoid),
		rng:   rand.New(rand.NewSource(cfg.Seed + 2)),
		noise: make([]float64, cfg.NoiseDim),
		gin:   make([]float64, cfg.NoiseDim+cfg.NumClasses),
		din:   make([]float64, cfg.FeatureDim+cfg.NumClasses),
		grad:  make([]float64, 1),
		rgrad: make([]float64, cfg.FeatureDim),
		ones:  []float64{1},
		zeros: []float64{0},
	}
}

// Generator exposes the trained generator network (feature engineering
// inspects its weights).
func (a *AMGAN) Generator() *ml.Network { return a.G }

// Config returns the construction configuration.
func (a *AMGAN) Config() Config { return a.cfg }

func (a *AMGAN) sampleNoise() {
	for i := range a.noise {
		a.noise[i] = a.rng.NormFloat64() * 0.5
	}
}

func (a *AMGAN) genInput(class int) []float64 {
	copy(a.gin, a.noise)
	for c := 0; c < a.cfg.NumClasses; c++ {
		v := 0.0
		if c == class {
			v = a.classGain()
		}
		a.gin[a.cfg.NoiseDim+c] = v
	}
	return a.gin
}

func (a *AMGAN) classGain() float64 {
	if a.cfg.ClassGain > 0 {
		return a.cfg.ClassGain
	}
	return 1
}

func (a *AMGAN) discInput(features []float64, class int) []float64 {
	copy(a.din, features)
	for c := 0; c < a.cfg.NumClasses; c++ {
		v := 0.0
		if c == class {
			v = a.classGain()
		}
		a.din[a.cfg.FeatureDim+c] = v
	}
	return a.din
}

// Generate emits one feature vector conditioned on class.
func (a *AMGAN) Generate(class int) []float64 {
	a.sampleNoise()
	out := a.G.Forward(a.genInput(class))
	return append([]float64(nil), out...)
}

// GenerateBatch emits n samples of a class. The rows share one contiguous
// backing array (cap-clamped views, so appending through a row copies).
func (a *AMGAN) GenerateBatch(class, n int) [][]float64 {
	out := matrix(n, a.G.OutputSize())
	a.generateInto(class, out)
	return out
}

// generateInto overwrites each row with a fresh sample of a class.
func (a *AMGAN) generateInto(class int, rows [][]float64) {
	for _, row := range rows {
		a.sampleNoise()
		copy(row, a.G.Forward(a.genInput(class)))
	}
}

// matrix returns rows×cols zeros as cap-clamped rows of one backing array.
func matrix(rows, cols int) [][]float64 {
	backing := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// GenerateFiltered emits n samples of a class after quality gating:
// overgen*n candidates are drawn and the n the discriminator scores most
// realistic for the class are kept — the paper's practice of verifying
// sample quality before collecting training data.
func (a *AMGAN) GenerateFiltered(class, n, overgen int) [][]float64 {
	if overgen < 1 {
		overgen = 1
	}
	type scored struct {
		v []float64
		s float64
	}
	cand := make([]scored, 0, n*overgen)
	for i := 0; i < n*overgen; i++ {
		v := a.Generate(class)
		cand = append(cand, scored{v, a.Discriminate(v, class)})
	}
	out := make([][]float64, 0, n)
	for k := 0; k < n && k < len(cand); k++ {
		best := k
		for m := k + 1; m < len(cand); m++ {
			if cand[m].s > cand[best].s {
				best = m
			}
		}
		cand[k], cand[best] = cand[best], cand[k]
		out = append(out, cand[k].v)
	}
	return out
}

// Discriminate scores a (features, class) pair: ~1 for real-and-matching.
func (a *AMGAN) Discriminate(features []float64, class int) float64 {
	return a.D.Forward(a.discInput(features, class))[0]
}

// TrainStep runs one iteration of the Figure 4 algorithm on a real sample
// with its class label. It returns the discriminator and generator losses.
func (a *AMGAN) TrainStep(real []float64, class int) (dLoss, gLoss float64) {
	grad := a.grad

	// Discriminator on the real, matching pair (target 1).
	pred := a.D.Forward(a.discInput(real, class))
	dLoss += ml.BCE(pred, a.ones, grad)
	a.D.Backward(grad)

	// Discriminator on a mismatched real pair (target 0) — the CGAN
	// label-matching term.
	if a.cfg.NumClasses > 1 {
		wrong := (class + 1 + a.rng.Intn(a.cfg.NumClasses-1)) % a.cfg.NumClasses
		pred = a.D.Forward(a.discInput(real, wrong))
		dLoss += ml.BCE(pred, a.zeros, grad)
		a.D.Backward(grad)
	}

	// Discriminator on a generated pair (target 0).
	// discInput copies G's output, so G's buffer needs no copy of its own.
	a.sampleNoise()
	pred = a.D.Forward(a.discInput(a.G.Forward(a.genInput(class)), class))
	dLoss += ml.BCE(pred, a.zeros, grad)
	a.D.Backward(grad)
	a.D.Step(a.cfg.LR, a.cfg.Momentum, 3)

	// Generator: make D call the fake real (target 1); the gradient
	// flows through D into G without updating D.
	a.sampleNoise()
	pred = a.D.Forward(a.discInput(a.G.Forward(a.genInput(class)), class))
	gLoss = ml.BCE(pred, a.ones, grad)
	dIn := a.D.InputGrad(grad)
	a.G.Descend(dIn[:a.cfg.FeatureDim], a.cfg.LR, a.cfg.Momentum)

	// Conditional reconstruction anchor. Cross-entropy (not MSE) against
	// the sigmoid output keeps gradients alive at the sparse extremes of
	// the feature space.
	if a.cfg.ReconWeight > 0 {
		a.sampleNoise()
		out := a.G.Forward(a.genInput(class))
		rgrad := a.rgrad
		ml.BCE(out, real, rgrad)
		for i := range rgrad {
			rgrad[i] *= a.cfg.ReconWeight
		}
		a.G.Descend(rgrad, a.cfg.LR, a.cfg.Momentum)
	}
	return dLoss, gLoss
}

// TrainResult summarizes a training run.
type TrainResult struct {
	// InitialStyleLoss is L_GM before any training (the untrained
	// generator's distance from the real per-class styles).
	InitialStyleLoss float64
	Epochs           []EpochStats
}

// EpochStats records per-epoch losses and the style-loss quality metric.
type EpochStats struct {
	Epoch     int
	DLoss     float64
	GLoss     float64
	StyleLoss float64 // L_GM between real and generated per-class windows
}

// Train runs the adversarial game for epochs passes over the samples,
// computing the Gram-matrix style loss each epoch (the paper's training
// quality monitor, Figure 7). classes[i] labels samples[i].
func (a *AMGAN) Train(samples [][]float64, classes []int, epochs int) TrainResult {
	var res TrainResult
	real := realStyle(samples, classes, 24)
	scratch := a.newStyleScratch(real)
	res.InitialStyleLoss = a.styleLoss(real, scratch)
	order := a.rng.Perm(len(samples))
	for e := 0; e < epochs; e++ {
		var dSum, gSum float64
		for _, i := range order {
			d, g := a.TrainStep(samples[i], classes[i])
			dSum += d
			gSum += g
		}
		res.Epochs = append(res.Epochs, EpochStats{
			Epoch:     e,
			DLoss:     dSum / float64(len(order)),
			GLoss:     gSum / float64(len(order)),
			StyleLoss: a.styleLoss(real, scratch),
		})
	}
	return res
}

// StyleLoss computes the mean per-class Gram style loss L_GM between real
// windows and freshly generated windows of n samples each — low values mean
// generated samples co-activate features the way real attacks of that class
// do.
func (a *AMGAN) StyleLoss(samples [][]float64, classes []int, n int) float64 {
	real := realStyle(samples, classes, n)
	return a.styleLoss(real, a.newStyleScratch(real))
}

// styleClass is the real side of one class's style loss, which never
// changes during training: the real window's length and Gram matrix.
type styleClass struct {
	class, window int
	gram          [][]float64
}

// realStyle windows the real samples, the first n of each class with at
// least two samples, in ascending class order.
func realStyle(samples [][]float64, classes []int, n int) []styleClass {
	byClass := map[int][][]float64{}
	for i, c := range classes {
		byClass[c] = append(byClass[c], samples[i])
	}
	// Iterate classes in sorted order: the loss sum and the generator's
	// RNG draws must not depend on map iteration order.
	classOrder := make([]int, 0, len(byClass))
	for c := range byClass {
		classOrder = append(classOrder, c)
	}
	sort.Ints(classOrder)
	var out []styleClass
	for _, c := range classOrder {
		real := byClass[c]
		if len(real) < 2 {
			continue
		}
		if len(real) > n {
			real = real[:n]
		}
		out = append(out, styleClass{class: c, window: len(real), gram: gram.Matrix(real)})
	}
	return out
}

// styleScratch holds the generated side of the style loss: one window of
// generated rows, as long as the longest real window, and its Gram matrix.
// Train reuses it for every class and epoch.
type styleScratch struct {
	window, gram [][]float64
}

func (a *AMGAN) newStyleScratch(real []styleClass) *styleScratch {
	longest := 0
	for _, r := range real {
		longest = max(longest, r.window)
	}
	dim := a.G.OutputSize()
	return &styleScratch{window: matrix(longest, dim), gram: matrix(dim, dim)}
}

// styleLoss generates a window for each real class window and averages
// their style losses.
func (a *AMGAN) styleLoss(real []styleClass, s *styleScratch) float64 {
	if len(real) == 0 {
		return 0
	}
	var total float64
	for _, r := range real {
		gen := s.window[:r.window]
		a.generateInto(r.class, gen)
		gram.MatrixInto(s.gram, gen)
		total += gram.StyleLoss(r.gram, s.gram, 1)
	}
	return total / float64(len(real))
}
