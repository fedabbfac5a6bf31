package defense

import (
	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/hpc"
	"evax/internal/kernel"
)

// DetectorFlagger bridges a trained detector into the controller: each
// sampling window is scored by the detector's compiled backend — for the
// single-layer EVAX model the fused kernel, which expands, normalizes and
// takes the dot product in one pass over the raw counters. The steady-state
// FlagWindow path performs no heap allocations.
type DetectorFlagger struct {
	be kernel.Backend
}

// NewDetectorFlagger wires det (trained on ds) into the controller,
// compiling its backend up front. The backend snapshots the detector's
// weights and threshold: tune the detector before wrapping it.
func NewDetectorFlagger(det *detect.Detector, ds *dataset.Dataset) *DetectorFlagger {
	return &DetectorFlagger{be: detect.CompileBackend(det, ds.Maxima())}
}

// FlagWindow implements Flagger. Zero allocations.
//
//evaxlint:hotpath
func (f *DetectorFlagger) FlagWindow(s hpc.Sample) bool {
	return f.be.ScoreRaw(s.Values, s.Instructions, s.Cycles) >= f.be.Threshold()
}
