package engine

import (
	"evax/internal/hpc"
	"evax/internal/kernel"
)

// Scorer is one consumer's handle on a generation's scoring pipeline: a
// clone of the generation's compiled backend, sharing its compiled state
// with private scratch. A scorer is single-goroutine; each serve shard,
// replay worker, and flagger holds its own. After construction the score
// path performs zero heap allocations, and the float path is bit-identical
// to detect.Detector.Score over the same rows.
type Scorer struct {
	gen *Generation
	be  kernel.Backend
}

// NewScorer builds a private scoring handle on the generation. All fallible
// work (decode, validation, kernel compile) happened when the generation
// was built, so handle construction cannot fail — which is what lets the
// serve hot path rebuild its handle inline when a swap lands.
func (g *Generation) NewScorer() *Scorer {
	return &Scorer{gen: g, be: g.be.CloneBackend()}
}

// Generation returns the generation this scorer was resolved from —
// consumers compare it against Swapper.Active to decide when to re-resolve.
func (sc *Scorer) Generation() *Generation { return sc.gen }

// Score runs the pipeline on one raw window. Zero allocations.
func (sc *Scorer) Score(raw []float64, instructions, cycles uint64) float64 {
	return sc.be.ScoreRaw(raw, instructions, cycles)
}

// ScoreBatch scores rows of contiguous raw windows (len(out) rows of
// RawDim values) — the shard flush form, one backend sweep over the whole
// batch. Zero allocations.
//
//evaxlint:hotpath
func (sc *Scorer) ScoreBatch(raw []float64, instr, cycles []uint64, out []float64) {
	sc.be.ScoreRawRows(raw, instr, cycles, out)
}

// Threshold exposes the decision boundary of the compiled backend.
func (sc *Scorer) Threshold() float64 { return sc.be.Threshold() }

// FlagWindow implements defense.Flagger: one sampling window scored against
// the generation's threshold. Zero allocations.
//
//evaxlint:hotpath
func (sc *Scorer) FlagWindow(s hpc.Sample) bool {
	return sc.be.ScoreRaw(s.Values, s.Instructions, s.Cycles) >= sc.be.Threshold()
}
