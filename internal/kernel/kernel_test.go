package kernel_test

import (
	"math"
	"testing"

	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/evasion"
	"evax/internal/hpc"
	"evax/internal/kernel"
	"evax/internal/sim"
)

// fixture is a small real corpus with a trained EVAX perceptron: the shared
// substrate of the kernel contract tests. Built once — corpus generation
// runs the simulator.
type fixture struct {
	ds   *dataset.Dataset
	plan *detect.FeaturePlan
	det  *detect.Detector
	kern *kernel.Scorer
}

var fixtureCache *fixture

func buildFixture(t *testing.T) *fixture {
	t.Helper()
	if fixtureCache != nil {
		return fixtureCache
	}
	o := dataset.DefaultCorpusOptions()
	o.Seeds = 1
	o.MaxInstr = 40_000
	o.Scale = 2
	o.AttackScale = 20
	ds := dataset.New(dataset.CollectAll(o))
	if ds.Block() == nil || ds.Block().Len() == 0 {
		t.Fatal("empty fixture corpus")
	}
	plan := detect.EVAXBase()
	plan.SetEngineered(detect.DefaultEngineered(plan))
	det := detect.NewPerceptron(1, plan)
	idx := make([]int, len(ds.Samples))
	for i := range idx {
		idx[i] = i
	}
	det.Train(ds, idx, detect.TrainOptions{Epochs: 4, LR: 0.15, Momentum: 0.7, Batch: 16, Seed: 1})
	det.TuneThresholdForFPR(benignScores(det, ds), 0.05)
	kern, err := detect.CompileScorer(det, ds.Maxima())
	if err != nil {
		t.Fatalf("CompileScorer: %v", err)
	}
	fixtureCache = &fixture{ds: ds, plan: plan, det: det, kern: kern}
	return fixtureCache
}

func benignScores(det *detect.Detector, ds *dataset.Dataset) []float64 {
	var out []float64
	for i := range ds.Samples {
		if !ds.Samples[i].Malicious {
			out = append(out, det.Score(ds.Samples[i].Derived))
		}
	}
	return out
}

// referenceScore is the historical three-pass scoring path, bypassing the
// detector's kernel: full plan execution into a fresh vector, then the
// network forward pass.
func referenceScore(det *detect.Detector, derived []float64) float64 {
	x := make([]float64, det.Plan.Dim())
	det.Plan.GatherVector(x, derived)
	return det.ScoreVector(x)
}

// The fused raw entry point must be bit-identical to the legacy pipeline:
// ExpandInto the full derived row, NormalizeInPlace, gather + forward.
func TestScoreRawBitIdentical(t *testing.T) {
	f := buildFixture(t)
	rawDim := f.ds.Block().RawDim()
	exp := hpc.NewExpander(rawDim)
	tmp := make([]float64, f.ds.DerivedDim)
	for i := range f.ds.Samples {
		s := &f.ds.Samples[i]
		exp.ExpandInto(tmp, hpc.Sample{Values: s.Raw, Instructions: s.Instructions, Cycles: s.Cycles})
		f.ds.NormalizeInPlace(tmp)
		want := referenceScore(f.det, tmp)
		got := f.kern.ScoreRaw(s.Raw, s.Instructions, s.Cycles)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sample %d: ScoreRaw %v != legacy %v", i, got, want)
		}
	}
}

// The derived entry points (single row and block) must be bit-identical to
// plan execution + forward over the stored corpus rows, and to each other.
func TestScoreDerivedBitIdentical(t *testing.T) {
	f := buildFixture(t)
	blk := f.ds.Block()
	out := make([]float64, blk.Len())
	f.kern.ScoreDerivedRows(blk.DerivedData(), blk.DerivedDim(), out)
	for i := range f.ds.Samples {
		d := f.ds.Samples[i].Derived
		want := referenceScore(f.det, d)
		if got := f.kern.ScoreDerived(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sample %d: ScoreDerived %v != legacy %v", i, got, want)
		}
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("sample %d: ScoreDerivedRows %v != legacy %v", i, out[i], want)
		}
		// Detector.Score itself now routes through the kernel — same bits.
		if got := f.det.Score(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sample %d: Detector.Score %v != legacy %v", i, got, want)
		}
	}
}

// The unrolled block body and the single-row path must agree bit for bit,
// including the scalar tail (row count not divisible by the unroll factor).
func TestScoreRawRowsMatchesSingle(t *testing.T) {
	f := buildFixture(t)
	blk := f.ds.Block()
	rows := blk.Len()
	if rows%4 == 0 {
		rows-- // force a scalar tail
	}
	instr := make([]uint64, rows)
	cycles := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		instr[i] = f.ds.Samples[i].Instructions
		cycles[i] = f.ds.Samples[i].Cycles
	}
	raw := blk.RawData()[: rows*blk.RawDim() : rows*blk.RawDim()]
	out := make([]float64, rows)
	f.kern.ScoreRawRows(raw, instr, cycles, out)
	for i := 0; i < rows; i++ {
		want := f.kern.ScoreRaw(blk.RawRow(i), instr[i], cycles[i])
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: block %v != single %v", i, out[i], want)
		}
	}

	q := quantized(t, f)
	qout := make([]float64, rows)
	q.ScoreRawRows(raw, instr, cycles, qout)
	for i := 0; i < rows; i++ {
		want := q.ScoreRaw(blk.RawRow(i), instr[i], cycles[i])
		if math.Float64bits(qout[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: quant block %v != single %v", i, qout[i], want)
		}
	}
}

// Clones share compiled state and score identically with private scratch.
func TestCloneScoresIdentically(t *testing.T) {
	f := buildFixture(t)
	c := f.kern.Clone()
	s := &f.ds.Samples[0]
	if a, b := c.ScoreRaw(s.Raw, s.Instructions, s.Cycles), f.kern.ScoreRaw(s.Raw, s.Instructions, s.Cycles); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("clone %v != original %v", a, b)
	}
	var bk kernel.Backend = f.kern
	if _, ok := bk.CloneBackend().(*kernel.Scorer); !ok {
		t.Fatal("float CloneBackend type")
	}
	bk = quantized(t, f)
	if _, ok := bk.CloneBackend().(*kernel.QuantScorer); !ok {
		t.Fatal("quant CloneBackend type")
	}
}

// Every steady-state kernel entry point must be allocation-free.
func TestKernelZeroAlloc(t *testing.T) {
	f := buildFixture(t)
	s := &f.ds.Samples[0]
	blk := f.ds.Block()
	rows := 8
	instr := make([]uint64, rows)
	cycles := make([]uint64, rows)
	for i := 0; i < rows; i++ {
		instr[i] = f.ds.Samples[i].Instructions
		cycles[i] = f.ds.Samples[i].Cycles
	}
	raw := blk.RawData()[: rows*blk.RawDim() : rows*blk.RawDim()]
	out := make([]float64, rows)
	dout := make([]float64, blk.Len())
	q := quantized(t, f)
	checks := []struct {
		name string
		fn   func()
	}{
		{"ScoreRaw", func() { f.kern.ScoreRaw(s.Raw, s.Instructions, s.Cycles) }},
		{"ScoreRawRows", func() { f.kern.ScoreRawRows(raw, instr, cycles, out) }},
		{"ScoreDerived", func() { f.kern.ScoreDerived(s.Derived) }},
		{"ScoreDerivedRows", func() { f.kern.ScoreDerivedRows(blk.DerivedData(), blk.DerivedDim(), dout) }},
		{"ScoreBase", func() { f.kern.ScoreBase(s.Derived[:f.kern.BaseDim()]) }},
		{"quant.ScoreRaw", func() { q.ScoreRaw(s.Raw, s.Instructions, s.Cycles) }},
		{"quant.FlagRaw", func() { q.FlagRaw(s.Raw, s.Instructions, s.Cycles) }},
		{"quant.ScoreRawRows", func() { q.ScoreRawRows(raw, instr, cycles, out) }},
		{"quant.ScoreDerived", func() { q.ScoreDerived(s.Derived) }},
	}
	for _, c := range checks {
		c.fn() // warm up
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", c.name, n)
		}
	}
}

// agreementTarget is the quantized-vs-float verdict agreement gate.
const agreementTarget = 0.995

func quantized(t *testing.T, f *fixture) *kernel.QuantScorer {
	t.Helper()
	q, err := kernel.Quantize(f.kern)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	// Re-tune the operating point on quantized benign scores, as the
	// deployment flow does.
	var benign []float64
	for i := range f.ds.Samples {
		if !f.ds.Samples[i].Malicious {
			benign = append(benign, q.ScoreDerived(f.ds.Samples[i].Derived))
		}
	}
	q.SetThreshold(detect.ThresholdForFPR(benign, 0.05))
	return q
}

// The quantized backend must agree with the float backend on at least
// agreementTarget of verdicts over the full corpus (benign + every attack
// class), on both the raw and derived entry points.
func TestQuantizedVerdictAgreementCorpus(t *testing.T) {
	f := buildFixture(t)
	q := quantized(t, f)
	agree, total := 0, 0
	for i := range f.ds.Samples {
		s := &f.ds.Samples[i]
		fFlag := f.kern.ScoreRaw(s.Raw, s.Instructions, s.Cycles) >= f.kern.Threshold()
		qFlag := q.FlagRaw(s.Raw, s.Instructions, s.Cycles)
		if fFlag == qFlag {
			agree++
		}
		total++
		dF := f.kern.ScoreDerived(s.Derived) >= f.kern.Threshold()
		dQ := q.ScoreDerived(s.Derived) >= q.Threshold()
		if dF == dQ {
			agree++
		}
		total++
	}
	if rate := float64(agree) / float64(total); rate < agreementTarget {
		t.Fatalf("corpus verdict agreement %.4f < %.4f (%d/%d)", rate, agreementTarget, agree, total)
	}
}

// The agreement gate must also hold on evasion-shaped inputs: program
// variants (the fuzzed suite) and AML gradient-descent perturbations.
func TestQuantizedVerdictAgreementEvasion(t *testing.T) {
	f := buildFixture(t)
	q := quantized(t, f)
	agree, total := 0, 0

	// Fuzzed variant suite: evasion program generators at several seeds,
	// scored on the raw path.
	o := dataset.DefaultCorpusOptions()
	for seed := int64(1); seed <= 3; seed++ {
		for _, samples := range [][]dataset.Sample{
			dataset.Collect(sim.DefaultConfig(), evasion.Transynther(seed, 8), o.Interval, 40_000),
			dataset.Collect(sim.DefaultConfig(), evasion.TRRespass(seed, 8), o.Interval, 40_000),
			dataset.Collect(sim.DefaultConfig(), evasion.Osiris(seed, 8), o.Interval, 40_000),
		} {
			for i := range samples {
				s := &samples[i]
				fFlag := f.kern.ScoreRaw(s.Raw, s.Instructions, s.Cycles) >= f.kern.Threshold()
				qFlag := q.FlagRaw(s.Raw, s.Instructions, s.Cycles)
				if fFlag == qFlag {
					agree++
				}
				total++
			}
		}
	}

	// AML suite: gradient perturbations of attack base vectors against the
	// float detector, scored on the base-vector path.
	aml := evasion.NewAML(nil)
	for i := range f.ds.Samples {
		s := &f.ds.Samples[i]
		if !s.Malicious {
			continue
		}
		res := aml.Descend(f.det, f.plan.Base(s.Derived))
		fFlag := f.kern.ScoreBase(res.Adv) >= f.kern.Threshold()
		qFlag := q.ScoreBase(res.Adv) >= q.Threshold()
		if fFlag == qFlag {
			agree++
		}
		total++
	}

	if total == 0 {
		t.Fatal("empty evasion suite")
	}
	if rate := float64(agree) / float64(total); rate < agreementTarget {
		t.Fatalf("evasion verdict agreement %.4f < %.4f (%d/%d)", rate, agreementTarget, agree, total)
	}
}

// Quantized scoring must beat a trivial detector: it should still separate
// the corpus (sanity that quantization preserved signal, not just verdicts).
func TestQuantizedSeparatesCorpus(t *testing.T) {
	f := buildFixture(t)
	q := quantized(t, f)
	var mal, ben, nMal, nBen float64
	for i := range f.ds.Samples {
		s := &f.ds.Samples[i]
		sc := q.ScoreDerived(s.Derived)
		if s.Malicious {
			mal += sc
			nMal++
		} else {
			ben += sc
			nBen++
		}
	}
	if nMal == 0 || nBen == 0 {
		t.Fatal("corpus missing a class")
	}
	if mal/nMal <= ben/nBen {
		t.Fatalf("quantized mean attack score %.4f <= benign %.4f", mal/nMal, ben/nBen)
	}
}

// Compile must reject malformed configs rather than mis-score.
func TestCompileValidation(t *testing.T) {
	good := kernel.Config{
		RawDim:  2,
		Indices: []int{0, 7},
		Norm:    []float64{1, 1},
		EngA:    []int{0},
		EngB:    []int{1},
		W:       []float64{0.5, -0.25, 0.125},
		Bias:    0.1,
	}
	if _, err := kernel.Compile(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []func(c *kernel.Config){
		func(c *kernel.Config) { c.RawDim = 0 },
		func(c *kernel.Config) { c.Indices = nil },
		func(c *kernel.Config) { c.Indices = []int{0, 99} },
		func(c *kernel.Config) { c.Norm = []float64{1} },
		func(c *kernel.Config) { c.Norm = []float64{1, math.NaN()} },
		func(c *kernel.Config) { c.EngA = []int{0, 1} },
		func(c *kernel.Config) { c.EngB = []int{9} },
		func(c *kernel.Config) { c.W = []float64{1} },
		func(c *kernel.Config) { c.W = []float64{1, math.Inf(1), 0} },
		func(c *kernel.Config) { c.Bias = math.NaN() },
	}
	for i, mutate := range bad {
		c := good
		c.Indices = append([]int(nil), good.Indices...)
		c.Norm = append([]float64(nil), good.Norm...)
		c.EngA = append([]int(nil), good.EngA...)
		c.EngB = append([]int(nil), good.EngB...)
		c.W = append([]float64(nil), good.W...)
		mutate(&c)
		if _, err := kernel.Compile(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// A derived-only scorer (no maxima) must refuse the raw path and refuse to
// quantize, but score derived rows.
func TestDerivedOnlyScorer(t *testing.T) {
	f := buildFixture(t)
	k, err := detect.CompileScorer(f.det, nil)
	if err != nil {
		t.Fatalf("derived-only CompileScorer: %v", err)
	}
	if k.HasRaw() {
		t.Fatal("derived-only scorer claims raw support")
	}
	d := f.ds.Samples[0].Derived
	if a, b := k.ScoreDerived(d), f.kern.ScoreDerived(d); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("derived-only %v != raw-capable %v", a, b)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ScoreRaw on derived-only scorer did not panic")
			}
		}()
		s := &f.ds.Samples[0]
		k.ScoreRaw(s.Raw, s.Instructions, s.Cycles)
	}()
	if _, err := kernel.Quantize(k); err == nil {
		t.Error("Quantize accepted a derived-only scorer")
	}
}
