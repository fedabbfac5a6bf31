// Package dataset collects labelled HPC samples from simulator runs and
// manages the corpus used to train and evaluate detectors: per-class
// splits, attack-category-holdout k-fold cross-validation (the paper's
// zero-day setting) and leakage-phase checkpointing (transmit/recover-phase
// samples of held-out attacks are excluded from test sets, per §VII).
package dataset

import (
	"fmt"
	"math/rand"
	"sync"

	"evax/internal/hpc"
	"evax/internal/isa"
	"evax/internal/sim"
)

// Sample is one labelled sampling window.
type Sample struct {
	// Raw holds the raw counter deltas (catalog-aligned); Derived the
	// expanded derived-statistic vector the detectors consume. Derived
	// values are max-normalized by the corpus normalizer.
	Raw     []float64
	Derived []float64

	Class     isa.Class
	Malicious bool
	Program   string
	// Phases flags which attack phases had micro-ops dispatched during
	// the window (bit i = isa.Phase(i)).
	Phases uint8
	// Window geometry.
	Instructions uint64
	Cycles       uint64
}

// HasPhase reports whether the window contained ops of phase p.
func (s *Sample) HasPhase(p isa.Phase) bool { return s.Phases&(1<<uint(p)) != 0 }

// TransmitOnly reports whether the window saw transmit/recover activity but
// no leak/mistrain/setup — the windows the k-fold test sets exclude for
// held-out attacks.
func (s *Sample) TransmitOnly() bool {
	active := s.Phases &^ (1 << uint(isa.PhaseNone))
	tx := uint8(1<<uint(isa.PhaseTransmit) | 1<<uint(isa.PhaseRecover))
	return active != 0 && active&^tx == 0
}

// collectReserveRows caps the rows a Collect staging block reserves up
// front; a longer run grows its block as it goes.
const collectReserveRows = 1 << 12

// collectStages recycles Collect's staging blocks. A run fills a block that
// already has room for every row it can produce, then copies the rows out
// into an exact-size block, so neither per-row regrowth nor an unused
// reserve reaches the corpus. Rows are fully written before use, so reuse
// never changes a value.
var collectStages sync.Pool

// stageBlock returns an empty staging block of the given dimensions with
// room for at least rows rows.
func stageBlock(rawDim, derDim, rows int) *SampleBlock {
	b, _ := collectStages.Get().(*SampleBlock)
	if b == nil || b.rawDim != rawDim || b.derDim != derDim {
		b = NewSampleBlock(rawDim, derDim)
	}
	b.Reset()
	b.Grow(rows)
	return b
}

// Collect runs prog to completion (or maxInstr) on a fresh machine with the
// given config, sampling every interval instructions. Vectors are raw
// deltas; normalization happens corpus-wide afterwards.
func Collect(cfg sim.Config, prog *isa.Program, interval, maxInstr uint64) []Sample {
	m := sim.New(cfg, prog)
	cat := sim.CounterCatalog()
	sampler := hpc.NewSampler(cat, m, interval)
	exp := hpc.NewExpander(cat.Len())
	sampler.Take() // baseline
	prevPhases := m.PhaseDispatched()
	// Every window spans at least interval instructions and the run stops
	// near maxInstr, so at most about maxInstr/interval + 1 rows come out.
	rows := collectReserveRows
	if interval > 0 {
		rows = int(min(maxInstr/interval, collectReserveRows-1) + 1)
	}
	block := stageBlock(cat.Len(), exp.Dim(), rows)
	scratch := make([]float64, cat.Len())
	out := make([]Sample, 0, rows)
	take := func() {
		sm, ok := sampler.TakeInto(scratch)
		if !ok || sm.Instructions == 0 {
			return
		}
		cur := m.PhaseDispatched()
		var mask uint8
		for p := range cur {
			if cur[p] > prevPhases[p] {
				mask |= 1 << uint(p)
			}
		}
		prevPhases = cur
		i := block.Extend()
		copy(block.RawRow(i), sm.Values)
		exp.ExpandInto(block.DerivedRow(i), sm)
		out = append(out, Sample{
			Class:        prog.Class,
			Malicious:    prog.Class.Malicious(),
			Program:      prog.Name,
			Phases:       mask,
			Instructions: sm.Instructions,
			Cycles:       sm.Cycles,
		})
	}
	for !m.Done() && m.Instructions() < maxInstr {
		m.RunCycles(256)
		if sampler.Due() {
			take()
		}
	}
	take()
	// Bind after the final Extend (growth past the reserve may have moved
	// the backing arrays), then copy the rows out of the staging block.
	block.Bind(out)
	Repack(out)
	collectStages.Put(block)
	return out
}

// Dataset is a labelled corpus with a fitted normalizer over the derived
// feature space.
type Dataset struct {
	Samples []Sample
	// DerivedDim is the dimensionality of the derived feature space.
	DerivedDim int
	max        []float64
	block      *SampleBlock
}

// New builds a dataset from samples, fitting max-normalization over the
// derived vectors and normalizing them in place. The samples are repacked
// into one contiguous block (their Raw/Derived views are rebound), so the
// fit and the normalization are two sweeps over a flat array.
func New(samples []Sample) *Dataset {
	d := &Dataset{Samples: samples}
	if len(samples) == 0 {
		return d
	}
	d.block = Repack(samples)
	d.DerivedDim = d.block.DerivedDim()
	d.max = make([]float64, d.DerivedDim)
	data := d.block.DerivedData()
	for base := 0; base < len(data); base += d.DerivedDim {
		row := data[base : base+d.DerivedDim]
		for j, v := range row {
			if v > d.max[j] {
				d.max[j] = v
			}
		}
	}
	for base := 0; base < len(data); base += d.DerivedDim {
		d.NormalizeInPlace(data[base : base+d.DerivedDim])
	}
	return d
}

// Block exposes the contiguous backing storage (nil for an empty corpus).
func (d *Dataset) Block() *SampleBlock { return d.block }

// Maxima returns a copy of the per-dimension maxima the dataset normalizes
// with (the deployable half of the detection pipeline).
func (d *Dataset) Maxima() []float64 { return append([]float64(nil), d.max...) }

// FromMaxima builds an empty dataset carrying the given normalization
// maxima — a deserialized normalizer for online detection.
func FromMaxima(max []float64) *Dataset {
	return &Dataset{DerivedDim: len(max), max: append([]float64(nil), max...)}
}

// NormalizeInPlace scales a derived vector by the corpus maxima (clamped to
// [0,1]); vectors from generators or evasion tooling use the same scaling.
// Zero allocations — this sits between expand and score on the online path.
//
//evaxlint:hotpath
func (d *Dataset) NormalizeInPlace(v []float64) {
	for j := range v {
		if d.max[j] > 0 {
			x := v[j] / d.max[j]
			if x > 1 {
				x = 1
			}
			v[j] = x
		} else {
			v[j] = 0
		}
	}
}

// Classes returns the distinct classes present, benign first.
func (d *Dataset) Classes() []isa.Class {
	seen := map[isa.Class]bool{}
	var out []isa.Class
	if d.countClass(isa.ClassBenign) > 0 {
		out = append(out, isa.ClassBenign)
		seen[isa.ClassBenign] = true
	}
	for _, s := range d.Samples {
		if !seen[s.Class] {
			seen[s.Class] = true
			out = append(out, s.Class)
		}
	}
	return out
}

func (d *Dataset) countClass(c isa.Class) int {
	n := 0
	for i := range d.Samples {
		if d.Samples[i].Class == c {
			n++
		}
	}
	return n
}

// ByClass returns the indices of samples of class c.
func (d *Dataset) ByClass(c isa.Class) []int {
	var idx []int
	for i := range d.Samples {
		if d.Samples[i].Class == c {
			idx = append(idx, i)
		}
	}
	return idx
}

// Split holds train/test index sets.
type Split struct {
	Train, Test []int
	// HeldOut is the attack class excluded from training in a k-fold
	// zero-day split (ClassBenign for plain random splits).
	HeldOut isa.Class
}

// RandomSplit shuffles sample indices and splits trainFrac into train.
func (d *Dataset) RandomSplit(seed int64, trainFrac float64) Split {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(d.Samples))
	cut := int(trainFrac * float64(len(idx)))
	return Split{Train: idx[:cut], Test: idx[cut:]}
}

// KFoldByAttack builds one split per attack class present: that class's
// samples are removed from training entirely; its test set holds the
// class's non-transmit-phase windows (the paper excludes the
// recovery/transmission phase of held-out attacks) plus a benign test
// share for false-positive measurement.
func (d *Dataset) KFoldByAttack(seed int64) []Split {
	var folds []Split
	rng := rand.New(rand.NewSource(seed))
	benign := d.ByClass(isa.ClassBenign)
	for _, c := range d.Classes() {
		if c == isa.ClassBenign {
			continue
		}
		held := d.ByClass(c)
		var train, test []int
		for i := range d.Samples {
			if d.Samples[i].Class != c {
				train = append(train, i)
			}
		}
		for _, i := range held {
			if !d.Samples[i].TransmitOnly() {
				test = append(test, i)
			}
		}
		// Add a benign slice to the test set (drawn, not removed from
		// train: benign behaviour is not the held-out unknown).
		perm := rng.Perm(len(benign))
		nb := len(test)
		if nb > len(benign) {
			nb = len(benign)
		}
		for _, j := range perm[:nb] {
			test = append(test, benign[j])
		}
		folds = append(folds, Split{Train: train, Test: test, HeldOut: c})
	}
	return folds
}

// Stats summarizes the corpus.
func (d *Dataset) Stats() string {
	mal, ben := 0, 0
	for i := range d.Samples {
		if d.Samples[i].Malicious {
			mal++
		} else {
			ben++
		}
	}
	return fmt.Sprintf("dataset{%d samples: %d malicious, %d benign, %d classes, dim %d}",
		len(d.Samples), mal, ben, len(d.Classes()), d.DerivedDim)
}
