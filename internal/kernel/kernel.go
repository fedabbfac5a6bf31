// Package kernel implements the fused scoring kernel: a compiled scorer
// that walks a window's raw counters exactly once, computing derived-view
// expansion, max-normalization, feature gather, engineered AND-features and
// the perceptron dot product in a single loop. The legacy path materializes
// the full ~800-slot derived row (hpc.Expander.ExpandInto), normalizes every
// slot (dataset.NormalizeInPlace) and only then gathers the ~145 features a
// detector actually reads; the fused kernel computes *only* the gathered
// slots, with normalization folded into per-feature constants at compile
// time.
//
// Two backends share one shape:
//
//   - Scorer (float64) is bit-identical to the legacy path. It reuses
//     hpc.WindowTerms/hpc.EvalDerived for the per-slot formulas, applies
//     the exact normalize ops of dataset.NormalizeInPlace, and accumulates
//     the dot product in the exact order of ml.Network.Forward (bias first,
//     then ascending feature index), so the golden corpus FNV hashes and the
//     online/offline bit-equivalence tests pin it.
//
//   - QuantScorer (int8 weights / fixed-point inputs) extends the paper's
//     quantized hardware perceptron to the real feature space via
//     perceptron.QuantizedLinear. Quantization and normalization fold into
//     one multiply per feature (qx = round(v * XOne/max)), replacing the
//     float backend's divide — quantized inference is both fidelity to the
//     paper's HW detector and the fastest serving path. Accuracy is pinned
//     by a verdict-agreement gate against the float backend.
//
// The package deliberately depends only on hpc and perceptron: detect
// compiles plans into kernel.Config, so kernel must not import detect.
package kernel

import (
	"fmt"
	"math"

	"evax/internal/hpc"
)

// blockRows is the unroll factor of the batch entry points: rows scored per
// iteration over the contiguous backing, sized so the per-feature constants
// (source index, op, normalizer, weight) are loaded once per blockRows rows.
const blockRows = 4

// Config describes a fused scorer: the feature plan resolved to derived-space
// indices, the normalization maxima for those slots, the engineered
// AND-features over the gathered base space, and the linear model. Compile
// validates and freezes it.
type Config struct {
	// RawDim is the base counter space size (len of a raw sample row).
	RawDim int
	// Indices maps each base feature to its derived-space slot
	// (counter*NumDerivedKinds + view), exactly as a detect.FeaturePlan
	// resolves names.
	Indices []int
	// Norm holds the per-feature normalization maximum (the dataset maxima
	// at the feature's derived slot). Nil compiles a derived-only scorer:
	// ScoreDerived/ScoreBase work, the raw entry points panic.
	Norm []float64
	// EngA/EngB are the engineered AND-feature inputs as positions in the
	// gathered base space (featureng.ANDFeature.A/B).
	EngA, EngB []int
	// W and Bias are the single-layer model: len(W) == len(Indices) +
	// len(EngA), base weights first, engineered weights after — the exact
	// layout of the detector's input vector.
	W    []float64
	Bias float64
	// Threshold is the malicious decision boundary on the sigmoid output.
	Threshold float64
}

// Scorer is the compiled float64 backend. All compiled state is immutable
// after Compile; only the scratch rows mutate, so a Scorer must not be used
// from two goroutines at once — concurrent consumers Clone (compiled state
// is shared, scratch is per-clone).
type Scorer struct {
	rawDim  int
	baseDim int

	src  []int32           // per base feature: raw counter index
	op   []hpc.DerivedKind // per base feature: derived view
	norm []float64         // per base feature: normalization maximum (nil: derived-only)
	idx  []int32           // per base feature: derived-space slot

	engA []int32 // per engineered feature: base-space input positions
	engB []int32

	w         []float64 // base weights, then engineered weights
	bias      float64
	threshold float64

	x  []float64 // raw-path scratch: gathered normalized base features
	x4 []float64 // block-path scratch: blockRows rows of base features
}

// Compile validates a Config and builds the fused float scorer.
func Compile(cfg Config) (*Scorer, error) {
	if cfg.RawDim <= 0 {
		return nil, fmt.Errorf("kernel: raw dimension %d", cfg.RawDim)
	}
	baseDim := len(cfg.Indices)
	if baseDim == 0 {
		return nil, fmt.Errorf("kernel: empty feature plan")
	}
	if cfg.Norm != nil && len(cfg.Norm) != baseDim {
		return nil, fmt.Errorf("kernel: %d norm entries for %d features", len(cfg.Norm), baseDim)
	}
	if len(cfg.EngA) != len(cfg.EngB) {
		return nil, fmt.Errorf("kernel: %d engineered A inputs vs %d B inputs", len(cfg.EngA), len(cfg.EngB))
	}
	if want := baseDim + len(cfg.EngA); len(cfg.W) != want {
		return nil, fmt.Errorf("kernel: %d weights for %d features", len(cfg.W), want)
	}
	space := hpc.DerivedSpaceSize(cfg.RawDim)
	s := &Scorer{
		rawDim:    cfg.RawDim,
		baseDim:   baseDim,
		src:       make([]int32, baseDim),
		op:        make([]hpc.DerivedKind, baseDim),
		idx:       make([]int32, baseDim),
		engA:      make([]int32, len(cfg.EngA)),
		engB:      make([]int32, len(cfg.EngB)),
		w:         append([]float64(nil), cfg.W...),
		bias:      cfg.Bias,
		threshold: cfg.Threshold,
		x:         make([]float64, baseDim),
		x4:        make([]float64, blockRows*baseDim),
	}
	for i, ix := range cfg.Indices {
		if ix < 0 || ix >= space {
			return nil, fmt.Errorf("kernel: feature %d slot %d outside derived space [0,%d)", i, ix, space)
		}
		s.idx[i] = int32(ix)
		s.src[i] = int32(ix / int(hpc.NumDerivedKinds))
		s.op[i] = hpc.DerivedKind(ix % int(hpc.NumDerivedKinds))
	}
	for j := range cfg.EngA {
		a, b := cfg.EngA[j], cfg.EngB[j]
		if a < 0 || a >= baseDim || b < 0 || b >= baseDim {
			return nil, fmt.Errorf("kernel: engineered feature %d inputs (%d,%d) outside base space [0,%d)", j, a, b, baseDim)
		}
		s.engA[j] = int32(a)
		s.engB[j] = int32(b)
	}
	for i, w := range cfg.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("kernel: weight %d is %v", i, w)
		}
	}
	if math.IsNaN(cfg.Bias) || math.IsInf(cfg.Bias, 0) {
		return nil, fmt.Errorf("kernel: bias is %v", cfg.Bias)
	}
	if cfg.Norm != nil {
		s.norm = make([]float64, baseDim)
		for i, m := range cfg.Norm {
			if math.IsNaN(m) || math.IsInf(m, 0) || m < 0 {
				return nil, fmt.Errorf("kernel: feature %d maximum %v", i, m)
			}
			s.norm[i] = m
		}
	}
	return s, nil
}

// MustCompile is Compile panicking on error — for configs assembled from
// already-validated plans.
func MustCompile(cfg Config) *Scorer {
	s, err := Compile(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Clone returns a scorer sharing all compiled state with its own scratch —
// the per-goroutine handle for concurrent scoring.
func (s *Scorer) Clone() *Scorer {
	c := *s
	c.x = make([]float64, s.baseDim)
	c.x4 = make([]float64, blockRows*s.baseDim)
	return &c
}

// RawDim returns the base counter space size.
func (s *Scorer) RawDim() int { return s.rawDim }

// BaseDim returns the number of gathered base features.
func (s *Scorer) BaseDim() int { return s.baseDim }

// Dim returns the full model input dimensionality (base + engineered).
func (s *Scorer) Dim() int { return len(s.w) }

// Threshold returns the malicious decision boundary.
func (s *Scorer) Threshold() float64 { return s.threshold }

// HasRaw reports whether the scorer was compiled with normalization maxima
// (required by the raw-counter entry points).
func (s *Scorer) HasRaw() bool { return s.norm != nil }

// sigmoid matches ml.Activation Sigmoid bit for bit.
func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// normClamp applies the exact normalize ops of dataset.NormalizeInPlace to
// one value: divide by the maximum, clamp to 1, zero for never-observed
// slots.
func normClamp(v, max float64) float64 {
	if max > 0 {
		x := v / max
		if x > 1 {
			x = 1
		}
		return x
	}
	return 0
}

// ScoreRaw scores one window of raw counter deltas: derived-view expansion,
// normalization, gather, engineered features and the dot product fused into
// one pass over the gathered slots only. Bit-identical to
// ExpandInto→NormalizeInPlace→Detector.Score. Zero heap allocations.
//
//evaxlint:hotpath
func (s *Scorer) ScoreRaw(values []float64, instructions, cycles uint64) float64 {
	if len(values) != s.rawDim {
		panic(fmt.Sprintf("kernel: ScoreRaw row has %d counters, plan has %d", len(values), s.rawDim))
	}
	if s.norm == nil {
		panic("kernel: scorer compiled without normalization maxima")
	}
	total, instrK, cyc := hpc.WindowTerms(values, instructions, cycles)
	x := s.x
	z := s.bias
	for i, si := range s.src {
		xv := normClamp(hpc.EvalDerived(s.op[i], values[si], total, instrK, cyc), s.norm[i])
		x[i] = xv
		z += s.w[i] * xv
	}
	wEng := s.w[s.baseDim:]
	for j, a := range s.engA {
		e := x[a] * x[s.engB[j]]
		z += wEng[j] * e
	}
	return sigmoid(z)
}

// ScoreRawRows scores rows of contiguous raw counter data (len(out) rows of
// rawDim values each), processing blockRows rows per iteration so the
// per-feature constants are loaded once per block. instr and cycles are the
// per-row window lengths. Zero heap allocations.
//
//evaxlint:hotpath
func (s *Scorer) ScoreRawRows(raw []float64, instr, cycles []uint64, out []float64) {
	rows := len(out)
	if len(raw) != rows*s.rawDim || len(instr) != rows || len(cycles) != rows {
		panic(fmt.Sprintf("kernel: ScoreRawRows dims: raw %d (want %d), instr %d, cycles %d, out %d",
			len(raw), rows*s.rawDim, len(instr), len(cycles), rows))
	}
	r := 0
	for ; r+blockRows <= rows; r += blockRows {
		s.score4(raw[r*s.rawDim:(r+blockRows)*s.rawDim], instr[r:], cycles[r:], out[r:r+blockRows])
	}
	for ; r < rows; r++ {
		out[r] = s.ScoreRaw(raw[r*s.rawDim:(r+1)*s.rawDim], instr[r], cycles[r])
	}
}

// score4 is the unrolled block body: four rows share one sweep over the
// compiled per-feature constants. Each row's float op sequence is identical
// to ScoreRaw, so blocked and single-row scoring agree bit for bit.
func (s *Scorer) score4(raw []float64, instr, cycles []uint64, out []float64) {
	d := s.rawDim
	r0 := raw[0*d : 1*d]
	r1 := raw[1*d : 2*d]
	r2 := raw[2*d : 3*d]
	r3 := raw[3*d : 4*d]
	t0, k0, c0 := hpc.WindowTerms(r0, instr[0], cycles[0])
	t1, k1, c1 := hpc.WindowTerms(r1, instr[1], cycles[1])
	t2, k2, c2 := hpc.WindowTerms(r2, instr[2], cycles[2])
	t3, k3, c3 := hpc.WindowTerms(r3, instr[3], cycles[3])
	b := s.baseDim
	x0 := s.x4[0*b : 1*b]
	x1 := s.x4[1*b : 2*b]
	x2 := s.x4[2*b : 3*b]
	x3 := s.x4[3*b : 4*b]
	z0, z1, z2, z3 := s.bias, s.bias, s.bias, s.bias
	for i, si := range s.src {
		op, nm, wi := s.op[i], s.norm[i], s.w[i]
		v0 := normClamp(hpc.EvalDerived(op, r0[si], t0, k0, c0), nm)
		v1 := normClamp(hpc.EvalDerived(op, r1[si], t1, k1, c1), nm)
		v2 := normClamp(hpc.EvalDerived(op, r2[si], t2, k2, c2), nm)
		v3 := normClamp(hpc.EvalDerived(op, r3[si], t3, k3, c3), nm)
		x0[i], x1[i], x2[i], x3[i] = v0, v1, v2, v3
		z0 += wi * v0
		z1 += wi * v1
		z2 += wi * v2
		z3 += wi * v3
	}
	wEng := s.w[b:]
	for j, a := range s.engA {
		bb := s.engB[j]
		wj := wEng[j]
		e0 := x0[a] * x0[bb]
		e1 := x1[a] * x1[bb]
		e2 := x2[a] * x2[bb]
		e3 := x3[a] * x3[bb]
		z0 += wj * e0
		z1 += wj * e1
		z2 += wj * e2
		z3 += wj * e3
	}
	out[0], out[1], out[2], out[3] = sigmoid(z0), sigmoid(z1), sigmoid(z2), sigmoid(z3)
}

// ScoreDerived scores an already expanded and normalized derived-space row
// (the offline corpus form): gather and dot product fused, no scratch — the
// method is stateless and safe to share across goroutines. Bit-identical to
// FeaturePlan.GatherVector + Network.Forward.
//
//evaxlint:hotpath
func (s *Scorer) ScoreDerived(derived []float64) float64 {
	z := s.bias
	for i, ix := range s.idx {
		z += s.w[i] * derived[ix]
	}
	wEng := s.w[s.baseDim:]
	for j, a := range s.engA {
		e := derived[s.idx[a]] * derived[s.idx[s.engB[j]]]
		z += wEng[j] * e
	}
	return sigmoid(z)
}

// ScoreDerivedRows scores rows of contiguous derived-space data (stride
// floats per row, len(out) rows) — the SampleBlock batch form. Zero heap
// allocations.
//
//evaxlint:hotpath
func (s *Scorer) ScoreDerivedRows(data []float64, stride int, out []float64) {
	rows := len(out)
	if len(data) != rows*stride {
		panic(fmt.Sprintf("kernel: ScoreDerivedRows dims: data %d, want %d rows of %d", len(data), rows, stride))
	}
	for r := 0; r < rows; r++ {
		out[r] = s.ScoreDerived(data[r*stride : (r+1)*stride])
	}
}

// ScoreBase scores a gathered base-feature vector (len BaseDim), computing
// engineered features on the fly. Stateless. Bit-identical to
// Detector.ScoreBase.
//
//evaxlint:hotpath
func (s *Scorer) ScoreBase(base []float64) float64 {
	z := s.bias
	for i := 0; i < s.baseDim; i++ {
		z += s.w[i] * base[i]
	}
	wEng := s.w[s.baseDim:]
	for j, a := range s.engA {
		e := base[a] * base[s.engB[j]]
		z += wEng[j] * e
	}
	return sigmoid(z)
}

// Backend is the scoring interface every online consumer binds to: one raw
// window, a contiguous raw block, the decision boundary and the row width.
// The float and the quantized scorer implement it, and so does detect's
// network backend for detectors the kernel cannot express.
type Backend interface {
	ScoreRaw(values []float64, instructions, cycles uint64) float64
	ScoreRawRows(raw []float64, instr, cycles []uint64, out []float64)
	Threshold() float64
	// RawDim is the raw counter-row width the backend scores.
	RawDim() int
	// CloneBackend returns a backend sharing compiled state with private
	// scratch — the per-shard handle.
	CloneBackend() Backend
}

// CloneBackend implements Backend.
func (s *Scorer) CloneBackend() Backend { return s.Clone() }
