// Fused-kernel integration: detect compiles its FeaturePlan + model into a
// kernel.Scorer (the package boundary runs this direction — kernel must not
// import detect), wraps every detector as a kernel.Backend for the online
// consumers, keeps a derived-space kernel per detector, and exposes the
// batch scoring entry points the experiment drivers use.
package detect

import (
	"fmt"

	"evax/internal/dataset"
	"evax/internal/hpc"
	"evax/internal/kernel"
	"evax/internal/ml"
)

// CompileScorer compiles the detector into a fused float kernel. maxima is
// the full derived-space normalization vector (dataset.Maxima()) for a
// raw-capable scorer, or nil for a derived-only scorer. Only the
// single-layer sigmoid architecture (the PerSpectron/EVAX hardware model)
// compiles; deep detectors score through ml.Network.
func CompileScorer(d *Detector, maxima []float64) (*kernel.Scorer, error) {
	if len(d.Net.Layers) != 1 {
		return nil, fmt.Errorf("detect: kernel needs a single-layer detector, have %d layers", len(d.Net.Layers))
	}
	l := d.Net.Layers[0]
	if l.Out != 1 || l.Act != ml.Sigmoid {
		return nil, fmt.Errorf("detect: kernel needs a 1-output sigmoid layer")
	}
	p := d.Plan
	if l.In != p.Dim() {
		return nil, fmt.Errorf("detect: layer input %d vs plan dimension %d", l.In, p.Dim())
	}
	cfg := kernel.Config{
		Indices:   p.indices,
		EngA:      make([]int, len(p.engineered)),
		EngB:      make([]int, len(p.engineered)),
		W:         l.W[0],
		Bias:      l.B[0],
		Threshold: d.Threshold,
	}
	for j, f := range p.engineered {
		cfg.EngA[j] = f.A
		cfg.EngB[j] = f.B
	}
	// The raw dimension is implied by the derived space the plan indexes
	// into; with maxima present the dataset's derived dimension pins it,
	// otherwise size the space to cover the plan's largest index.
	if maxima != nil {
		if len(maxima)%int(hpc.NumDerivedKinds) != 0 {
			return nil, fmt.Errorf("detect: maxima length %d is not a whole derived space", len(maxima))
		}
		cfg.RawDim = len(maxima) / int(hpc.NumDerivedKinds)
		cfg.Norm = make([]float64, len(p.indices))
		for i, ix := range p.indices {
			if ix >= len(maxima) {
				return nil, fmt.Errorf("detect: feature %q slot %d outside maxima space %d", p.names[i], ix, len(maxima))
			}
			cfg.Norm[i] = maxima[ix]
		}
	} else {
		maxIdx := 0
		for _, ix := range p.indices {
			if ix > maxIdx {
				maxIdx = ix
			}
		}
		cfg.RawDim = maxIdx/int(hpc.NumDerivedKinds) + 1
	}
	return kernel.Compile(cfg)
}

// CompileBackend compiles the detector into the backend every online
// consumer scores through, and is the one place that chooses it: the fused
// float kernel (CompileScorer) when the detector compiles to one, otherwise
// a network backend that expands the window, normalizes it by maxima (the
// full derived-space vector, dataset.Maxima()) and runs Detector.Score on a
// private clone. Both snapshot the detector's weights and threshold, so
// retuning the detector afterwards does not reach the backend.
func CompileBackend(d *Detector, maxima []float64) kernel.Backend {
	if k, err := CompileScorer(d, maxima); err == nil {
		return k
	}
	exp := hpc.NewExpander(len(maxima) / int(hpc.NumDerivedKinds))
	return &netBackend{
		det:     d.Clone(),
		norm:    dataset.FromMaxima(maxima),
		exp:     exp,
		derived: make([]float64, exp.Dim()),
	}
}

// netBackend scores detectors outside the kernel's single-layer model (the
// deep networks of Figure 20) through the three-pass pipeline: expand every
// derived slot, normalize, then gather and run the network forward. The
// expander and normalizer are shared by clones; the detector clone and the
// derived row are per-clone scratch.
type netBackend struct {
	det     *Detector
	norm    *dataset.Dataset
	exp     *hpc.Expander
	derived []float64
}

// ScoreRaw implements kernel.Backend. Zero allocations in steady state.
//
//evaxlint:hotpath
func (b *netBackend) ScoreRaw(values []float64, instructions, cycles uint64) float64 {
	b.exp.ExpandInto(b.derived, hpc.Sample{Values: values, Instructions: instructions, Cycles: cycles})
	b.norm.NormalizeInPlace(b.derived)
	return b.det.Score(b.derived)
}

// ScoreRawRows implements kernel.Backend, one row at a time.
//
//evaxlint:hotpath
func (b *netBackend) ScoreRawRows(raw []float64, instr, cycles []uint64, out []float64) {
	d := b.RawDim()
	if len(raw) != len(out)*d || len(instr) != len(out) || len(cycles) != len(out) {
		panic(fmt.Sprintf("detect: ScoreRawRows dims: raw %d (want %d), instr %d, cycles %d, out %d",
			len(raw), len(out)*d, len(instr), len(cycles), len(out)))
	}
	for i := range out {
		out[i] = b.ScoreRaw(raw[i*d:(i+1)*d], instr[i], cycles[i])
	}
}

// Threshold implements kernel.Backend.
func (b *netBackend) Threshold() float64 { return b.det.Threshold }

// RawDim implements kernel.Backend.
func (b *netBackend) RawDim() int { return b.exp.Dim() / int(hpc.NumDerivedKinds) }

// CloneBackend implements kernel.Backend.
func (b *netBackend) CloneBackend() kernel.Backend {
	return &netBackend{det: b.det.Clone(), norm: b.norm, exp: b.exp, derived: make([]float64, len(b.derived))}
}

// compileKernel snapshots the detector's weights into its derived-space
// kernel. Deep detectors get none and score through ml.Network.
func (d *Detector) compileKernel() {
	d.kern = nil
	if s, err := CompileScorer(d, nil); err == nil {
		d.kern = s
	}
}

// ScoreBatch scores the dataset samples at idx into out (len(out) ==
// len(idx)) through the fused kernel, falling back to the network for deep
// detectors. Zero allocations in steady state for kernel-capable detectors.
//
//evaxlint:hotpath
func (d *Detector) ScoreBatch(ds *dataset.Dataset, idx []int, out []float64) {
	if len(out) != len(idx) {
		panic(fmt.Sprintf("detect: ScoreBatch out %d vs idx %d", len(out), len(idx)))
	}
	if k := d.kern; k != nil {
		for j, i := range idx {
			out[j] = k.ScoreDerived(ds.Samples[i].Derived)
		}
		return
	}
	for j, i := range idx {
		out[j] = d.Score(ds.Samples[i].Derived)
	}
}
