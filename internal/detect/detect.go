// Package detect assembles the hardware malware detectors evaluated in the
// paper: PerSpectron (the prior state of the art — a single-layer model
// over 106 performance counters) and EVAX (the same architecture over 145
// features: 133 selected counters plus 12 engineered security HPCs), as
// well as the deeper networks of Figure 20. Detectors are trained either
// conventionally (on real samples) or with EVAX vaccination (real samples
// augmented by AM-GAN-generated adversarial samples).
package detect

import (
	"fmt"
	"math/rand"
	"sort"

	"evax/internal/dataset"
	"evax/internal/featureng"
	"evax/internal/hpc"
	"evax/internal/kernel"
	"evax/internal/metrics"
	"evax/internal/ml"
	"evax/internal/sim"
)

// FeaturePlan is the compiled feature selection a detector executes: base
// features resolved from names to derived-space indices once at assembly,
// a name→position index compiled alongside them, and the engineered
// AND-features appended to the base gather. The plan is immutable after
// detector assembly and shared across detector clones — only per-detector
// scratch is cloned.
type FeaturePlan struct {
	name       string
	indices    []int    // indices into the derived counter space
	names      []string // aligned with indices
	index      map[string]int
	engineered []featureng.ANDFeature
}

// NewPlan compiles a feature plan from aligned index/name lists. The
// name→position index is built here, once — nothing downstream ever
// rebuilds a name map per call.
func NewPlan(name string, indices []int, names []string) *FeaturePlan {
	if len(indices) != len(names) {
		panic(fmt.Sprintf("detect: plan %q: %d indices vs %d names", name, len(indices), len(names)))
	}
	p := &FeaturePlan{
		name:    name,
		indices: append([]int(nil), indices...),
		names:   append([]string(nil), names...),
		index:   make(map[string]int, len(names)),
	}
	for i, n := range p.names {
		p.index[n] = i
	}
	return p
}

// Name returns the plan's name.
func (p *FeaturePlan) Name() string { return p.name }

// BaseDim is the number of selected base features.
func (p *FeaturePlan) BaseDim() int { return len(p.indices) }

// Dim is the full detector input dimensionality (base + engineered).
func (p *FeaturePlan) Dim() int { return len(p.indices) + len(p.engineered) }

// Indices returns a copy of the derived-space indices. Hot callers iterating
// per sample should use IndexAt, which does not allocate.
func (p *FeaturePlan) Indices() []int { return append([]int(nil), p.indices...) }

// Names returns a copy of the base feature names. Hot callers iterating per
// sample should use NameAt, which does not allocate.
func (p *FeaturePlan) Names() []string { return append([]string(nil), p.names...) }

// IndexAt returns the derived-space index of base feature i without copying
// the index table.
func (p *FeaturePlan) IndexAt(i int) int { return p.indices[i] }

// NameAt returns the name of base feature i without copying the name table.
func (p *FeaturePlan) NameAt(i int) string { return p.names[i] }

// Engineered returns the engineered features. The slice is owned by the
// plan; callers must not modify it.
func (p *FeaturePlan) Engineered() []featureng.ANDFeature { return p.engineered }

// SetEngineered attaches engineered features (validated against the base
// dimensionality). Call before building detectors on the plan: detectors
// size their networks and scratch from Dim().
func (p *FeaturePlan) SetEngineered(feats []featureng.ANDFeature) {
	for _, f := range feats {
		if f.A < 0 || f.A >= p.BaseDim() || f.B < 0 || f.B >= p.BaseDim() {
			panic(fmt.Sprintf("detect: plan %q: engineered feature %q out of base space [0,%d)",
				p.name, f.Name, p.BaseDim()))
		}
	}
	p.engineered = append([]featureng.ANDFeature(nil), feats...)
}

// Index returns the base-feature position of name, or -1 if the plan does
// not select it. This is the compiled lookup that replaced the per-call
// map rebuilds.
func (p *FeaturePlan) Index(name string) int {
	if i, ok := p.index[name]; ok {
		return i
	}
	return -1
}

// Gather writes the selected base features of a derived vector into dst
// (len == BaseDim). Zero allocations.
func (p *FeaturePlan) Gather(dst, derived []float64) {
	for i, idx := range p.indices {
		dst[i] = derived[idx]
	}
}

// Base extracts the selected base features from a derived vector into a
// fresh slice (allocating convenience form of Gather).
func (p *FeaturePlan) Base(derived []float64) []float64 {
	out := make([]float64, len(p.indices))
	p.Gather(out, derived)
	return out
}

// ExtendInto evaluates the engineered features over dst's base prefix and
// writes them into dst's tail; dst has length Dim() with the first
// BaseDim() entries already holding base features. Zero allocations.
func (p *FeaturePlan) ExtendInto(dst []float64) {
	base := dst[:len(p.indices)]
	for i, f := range p.engineered {
		dst[len(p.indices)+i] = f.Eval(base)
	}
}

// Extend appends engineered feature values to a base vector.
func (p *FeaturePlan) Extend(base []float64) []float64 {
	return featureng.Append(base, p.engineered)
}

// GatherVector executes the whole plan into dst (len == Dim()): base
// gather followed by engineered evaluation. Zero allocations.
func (p *FeaturePlan) GatherVector(dst, derived []float64) {
	p.Gather(dst[:len(p.indices)], derived)
	p.ExtendInto(dst)
}

// GatherBatch gathers base features for every listed sample into one
// contiguous block, returning row views (the batch form detector training
// and the GAN corpus builders use). The output block is the only
// allocation: two makes per batch, amortized over len(idx) samples, and
// nothing per-row.
//
//evaxlint:hotpath
func (p *FeaturePlan) GatherBatch(ds *dataset.Dataset, idx []int) [][]float64 {
	dim := p.BaseDim()
	//evaxlint:ignore hotpath the returned batch block is the output itself, one allocation per batch
	backing := make([]float64, len(idx)*dim)
	//evaxlint:ignore hotpath row-view header slice, one allocation per batch
	rows := make([][]float64, len(idx))
	for k, i := range idx {
		row := backing[k*dim : (k+1)*dim : (k+1)*dim]
		p.Gather(row, ds.Samples[i].Derived)
		rows[k] = row
	}
	return rows
}

// FeatureOf maps a base-feature index to itself with its name — the adapter
// featureng.Mine uses when mining over this plan's space.
func (p *FeaturePlan) FeatureOf(i int) (int, string) {
	if i < 0 || i >= len(p.names) {
		return -1, ""
	}
	return i, p.names[i]
}

// validate checks the plan against the catalog it was assembled from:
// every index inside the derived space, every name resolvable.
func (p *FeaturePlan) validate(cat *hpc.Catalog) *FeaturePlan {
	space := hpc.DerivedSpaceSize(cat.Len())
	for i, idx := range p.indices {
		if idx < 0 || idx >= space {
			panic(fmt.Sprintf("detect: plan %q: feature %q index %d outside derived space [0,%d)",
				p.name, p.names[i], idx, space))
		}
	}
	return p
}

// derivedIndex resolves "counter.view" to a derived-space index.
func derivedIndex(cat *hpc.Catalog, counter string, view hpc.DerivedKind) int {
	base := cat.MustIndex(counter)
	return base*int(hpc.NumDerivedKinds) + int(view)
}

// perSpectronExclusions lists counters outside PerSpectron's 2020-era view:
// DRAM internals and the InvisiSpec speculative-buffer counters.
var perSpectronExclusions = map[string]bool{
	"dcache.SpecFills": true, "dcache.SpecExposes": true,
	"dcache.SpecSquashed": true, "dcache.SpecBufHits": true,
}

// keyRateCounters get a second, rate view in the PerSpectron set.
var keyRateCounters = []string{
	"lsq.squashedLoads", "iq.SquashedInstsExamined", "iew.BranchMispredicts",
	"dcache.ReadReq_misses", "dcache.Flushes", "commit.Faults",
}

// PerSpectron builds the 106-feature baseline plan (no engineered features).
func PerSpectron() *FeaturePlan {
	cat := sim.CounterCatalog()
	var indices []int
	var names []string
	for i := 0; i < cat.Len(); i++ {
		name := cat.Name(i)
		if perSpectronExclusions[name] || len(name) > 5 && name[:5] == "dram." {
			continue
		}
		indices = append(indices, i*int(hpc.NumDerivedKinds)+int(hpc.DerivedTotal))
		names = append(names, name)
	}
	for _, c := range keyRateCounters {
		indices = append(indices, derivedIndex(cat, c, hpc.DerivedRate))
		names = append(names, c+".rate")
	}
	return NewPlan("perspectron-106", indices, names).validate(cat)
}

// evaxExtraRates get rate views in the EVAX base set beyond PerSpectron's.
var evaxExtraRates = []string{
	"lsq.ignoredResponses", "lsq.forwLoads", "iew.MemOrderViolation",
	"rng.ContentionCycles", "dram.Activates", "dram.RowConflicts",
	"dram.bytesReadWrQ", "dram.bytesRead", "fetch.SquashCycles",
	"spec.LoadsExecuted", "dtlb.rdMisses", "branchPred.RASUnderflows",
}

// EVAXBase builds the 133-counter EVAX base plan: everything PerSpectron
// monitors plus the DRAM and speculation counters and additional rate
// views. Engineered features are attached separately (DefaultEngineered or
// featureng.Mine output).
func EVAXBase() *FeaturePlan {
	cat := sim.CounterCatalog()
	var indices []int
	var names []string
	for i := 0; i < cat.Len(); i++ {
		indices = append(indices, i*int(hpc.NumDerivedKinds)+int(hpc.DerivedTotal))
		names = append(names, cat.Name(i))
	}
	for _, c := range append(append([]string(nil), keyRateCounters...), evaxExtraRates...) {
		indices = append(indices, derivedIndex(cat, c, hpc.DerivedRate))
		names = append(names, c+".rate")
	}
	return NewPlan("evax-133", indices, names).validate(cat)
}

// defaultEngineeredPairs names the 12 security HPCs of the paper's Table I
// (those expressible in this machine's counter space), as
// (counterA, counterB) pairs ANDed together.
var defaultEngineeredPairs = [12][2]string{
	{"dram.bytesReadWrQ", "lsq.squashedLoads"},                   // SquashedBytesReadFromWRQu
	{"rename.CommittedMaps", "rename.Undone"},                    // Table I row 2
	{"iew.MemOrderViolation", "dtlb.rdMisses"},                   // Table I row 3
	{"lsq.squashedStores", "lsq.forwLoads"},                      // Table I row 4
	{"membus.trans_dist::ReadSharedReq", "lsq.ignoredResponses"}, // row 5
	{"iq.SquashedNonSpecLD", "dcache.ReadReq_mshr_miss_latency"}, // row 6
	{"rename.serializingInsts", "iew.ExecSquashedInsts"},         // row 7
	{"commit.Faults", "dcache.Flushes"},
	{"dram.Activates", "dcache.FlushMisses"},
	{"rng.ContentionCycles", "rng.Reads"},
	{"branchPred.RASUnderflows", "lsq.squashedLoads"},
	{"iew.BranchMispredicts", "dcache.ReadReq_misses"},
}

// DefaultEngineered returns the paper's Table I feature list resolved
// against p (the static fallback; the Table I experiment regenerates the
// list by mining a trained AM-GAN generator). Resolution goes through the
// plan's compiled name index — no per-call map rebuild.
func DefaultEngineered(p *FeaturePlan) []featureng.ANDFeature {
	var out []featureng.ANDFeature
	for _, pair := range defaultEngineeredPairs {
		a := p.Index(pair[0])
		b := p.Index(pair[1])
		if a < 0 || b < 0 {
			continue
		}
		if a > b {
			a, b = b, a
		}
		out = append(out, featureng.ANDFeature{A: a, B: b, Name: pair[0] + " AND " + pair[1]})
	}
	return out
}

// Detector is a trained classifier over a feature plan. Threshold is the
// malicious decision boundary on the model's sigmoid output (the paper
// tunes it for sensitivity/ROC operating points).
type Detector struct {
	Plan      *FeaturePlan
	Net       *ml.Network
	Threshold float64

	// scratch holds the gathered input vector for scoring — reused across
	// calls so the steady-state score path allocates nothing.
	scratch []float64

	// kern is the fused derived-space kernel (kernel.Scorer) compiled from
	// the plan and weights when TrainVectors ends or Unmarshal decodes the
	// detector. Deep and untrained detectors leave it nil and score through
	// the network, which gives the same bits. Clones share it: the
	// derived-space kernel entry points are stateless.
	kern *kernel.Scorer
}

// buf returns the detector's input scratch, sized to the plan.
func (d *Detector) buf() []float64 {
	if len(d.scratch) != d.Plan.Dim() {
		//evaxlint:ignore hotpath one-time lazy sizing; steady-state calls reuse the scratch
		d.scratch = make([]float64, d.Plan.Dim())
	}
	return d.scratch
}

// Clone returns a detector with the same weights and threshold but its own
// forward-pass scratch. Network.Forward writes per-layer activations in
// place, so a detector must never be scored from two runner jobs at once —
// parallel campaigns clone the shared detector per job instead. The plan is
// shared (immutable after assembly); only scratch is per-clone.
func (d *Detector) Clone() *Detector {
	return &Detector{Plan: d.Plan, Net: d.Net.Clone(), Threshold: d.Threshold, kern: d.kern}
}

// NewPerceptron builds the HW-friendly single-layer detector (the
// PerSpectron/EVAX architecture).
func NewPerceptron(seed int64, p *FeaturePlan) *Detector {
	return &Detector{
		Plan:      p,
		Net:       ml.New(seed, []int{p.Dim(), 1}, ml.Linear, ml.Sigmoid),
		Threshold: 0.5,
	}
}

// NewDeep builds an N-hidden-layer detector of the given width (Figure 20's
// 16- and 32-layer networks).
func NewDeep(seed int64, p *FeaturePlan, hiddenLayers, width int) *Detector {
	sizes := []int{p.Dim()}
	for i := 0; i < hiddenLayers; i++ {
		sizes = append(sizes, width)
	}
	sizes = append(sizes, 1)
	return &Detector{
		Plan:      p,
		Net:       ml.New(seed, sizes, ml.LeakyReLU, ml.Sigmoid),
		Threshold: 0.5,
	}
}

// ScoreVector scores a full detector-space vector (base + engineered).
func (d *Detector) ScoreVector(x []float64) float64 { return d.Net.Forward(x)[0] }

// ScoreBase scores a base-feature vector (engineered features computed).
// Zero allocations in steady state. Single-layer detectors score through
// the fused kernel (bit-identical to the gather+forward path); deep ones
// through the network.
func (d *Detector) ScoreBase(base []float64) float64 {
	if k := d.kern; k != nil {
		return k.ScoreBase(base)
	}
	x := d.buf()
	copy(x, base)
	d.Plan.ExtendInto(x)
	return d.ScoreVector(x)
}

// Score scores a derived-space sample vector through the fused kernel
// (gather + engineered features + dot product in one loop, bit-identical to
// the historical plan-execution + forward pass), falling back to the
// network for deep detectors. Zero allocations in steady state —
// statically enforced by the hotpath analyzer.
//
//evaxlint:hotpath
func (d *Detector) Score(derived []float64) float64 {
	if k := d.kern; k != nil {
		return k.ScoreDerived(derived)
	}
	x := d.buf()
	d.Plan.GatherVector(x, derived)
	return d.ScoreVector(x)
}

// Flag reports malicious for a derived-space vector.
func (d *Detector) Flag(derived []float64) bool { return d.Score(derived) >= d.Threshold }

// FlagBase reports malicious for a base-space vector.
func (d *Detector) FlagBase(base []float64) bool { return d.ScoreBase(base) >= d.Threshold }

// TrainOptions controls detector training.
type TrainOptions struct {
	Epochs   int
	LR       float64
	Momentum float64
	Batch    int
	Seed     int64
	// Monotone projects weights to be non-negative after each step,
	// training a monotone detector: anomalous activity can only raise
	// the suspicion score. This closes the negative-weight channel
	// adversarial-ML evasion exploits (used by the hardened EVAX arm).
	Monotone bool
}

// DefaultTrainOptions returns settings adequate for the corpus sizes the
// experiments build.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Epochs: 30, LR: 0.15, Momentum: 0.7, Batch: 16, Seed: 1}
}

// TrainVectors trains on detector-BASE-space vectors with boolean labels;
// engineered features are computed on the fly (into the detector's scratch
// — the epoch loop performs no per-example allocation). Classes are
// balanced by inverse-frequency example weighting.
func (d *Detector) TrainVectors(base [][]float64, labels []bool, o TrainOptions) {
	if len(base) == 0 {
		return
	}
	pos, neg := 0, 0
	for _, l := range labels {
		if l {
			pos++
		} else {
			neg++
		}
	}
	wPos, wNeg := 1.0, 1.0
	if pos > 0 && neg > 0 {
		if pos > neg {
			wNeg = float64(pos) / float64(neg)
		} else {
			wPos = float64(neg) / float64(pos)
		}
	}
	rng := rand.New(rand.NewSource(o.Seed))
	grad := make([]float64, 1)
	target := make([]float64, 1)
	x := d.buf()
	for e := 0; e < o.Epochs; e++ {
		perm := rng.Perm(len(base))
		inBatch := 0
		for _, i := range perm {
			copy(x, base[i])
			d.Plan.ExtendInto(x)
			target[0] = 0
			w := wNeg
			if labels[i] {
				target[0], w = 1.0, wPos
			}
			pred := d.Net.Forward(x)
			ml.BCE(pred, target, grad)
			grad[0] *= w
			d.Net.Backward(grad)
			inBatch++
			if inBatch == o.Batch {
				d.Net.Step(o.LR, o.Momentum, o.Batch)
				if o.Monotone {
					d.Net.ProjectNonNegative()
				}
				inBatch = 0
			}
		}
		if inBatch > 0 {
			d.Net.Step(o.LR, o.Momentum, inBatch)
			if o.Monotone {
				d.Net.ProjectNonNegative()
			}
		}
	}
	d.compileKernel()
}

// Train trains on dataset samples selected by idx (base vectors gathered
// into one contiguous batch block).
func (d *Detector) Train(ds *dataset.Dataset, idx []int, o TrainOptions) {
	base := d.Plan.GatherBatch(ds, idx)
	labels := make([]bool, len(idx))
	for k, i := range idx {
		labels[k] = ds.Samples[i].Malicious
	}
	d.TrainVectors(base, labels, o)
}

// Evaluate scores the dataset samples at idx through the fused batch path
// and returns the confusion matrix at the current threshold.
func (d *Detector) Evaluate(ds *dataset.Dataset, idx []int) metrics.Confusion {
	scores := make([]float64, len(idx))
	d.ScoreBatch(ds, idx, scores)
	var c metrics.Confusion
	for k, i := range idx {
		c.Add(scores[k] >= d.Threshold, ds.Samples[i].Malicious)
	}
	return c
}

// Scores returns raw scores and labels over idx (ROC input), scored through
// the fused batch path.
func (d *Detector) Scores(ds *dataset.Dataset, idx []int) (scores []float64, labels []bool) {
	scores = make([]float64, len(idx))
	d.ScoreBatch(ds, idx, scores)
	labels = make([]bool, len(idx))
	for k, i := range idx {
		labels[k] = ds.Samples[i].Malicious
	}
	return
}

// TuneThresholdForFPR sets the threshold to the smallest value whose
// false-positive rate on the given benign scores does not exceed target
// ("EVAX is tuned to have very high sensitivity" — the operating point is
// chosen on benign traffic).
func (d *Detector) TuneThresholdForFPR(benignScores []float64, target float64) {
	if len(benignScores) == 0 {
		return
	}
	d.Threshold = ThresholdForFPR(benignScores, target)
}

// ThresholdForFPR computes the smallest threshold whose false-positive rate
// on the given benign scores does not exceed target — the package-level form
// so the quantized backend can re-tune its operating point on quantized
// benign scores without a Detector in hand.
func ThresholdForFPR(benignScores []float64, target float64) float64 {
	s := append([]float64(nil), benignScores...)
	sort.Float64s(s)
	// Allow at most target fraction of benign scores >= threshold.
	k := int(float64(len(s)) * (1 - target))
	if k >= len(s) {
		k = len(s) - 1
	}
	if k < 0 {
		k = 0
	}
	return s[k] + 1e-9
}
