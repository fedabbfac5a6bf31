package defense

import (
	"encoding/json"
	"fmt"
	"math"

	"evax/internal/dataset"
	"evax/internal/detect"
	"evax/internal/hpc"
	"evax/internal/safeio"
	"evax/internal/sim"
)

// bundle is the deployable detection pipeline: the trained detector plus
// the normalization maxima its inputs were scaled with — the paper's
// vendor-distributed update unit (weights and feature set travel together,
// like a microcode patch).
type bundle struct {
	Detector json.RawMessage `json:"detector"`
	Maxima   []float64       `json:"maxima"`
}

// EncodeBundle serializes a detector and its training normalizer into the
// bundle wire form SaveBundle persists and DecodeBundle parses.
func EncodeBundle(det *detect.Detector, ds *dataset.Dataset) ([]byte, error) {
	dd, err := det.Marshal()
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(bundle{Detector: dd, Maxima: ds.Maxima()})
	if err != nil {
		return nil, fmt.Errorf("defense: encoding bundle: %w", err)
	}
	return data, nil
}

// SaveBundle writes a detector and its training normalizer to one file.
func SaveBundle(path string, det *detect.Detector, ds *dataset.Dataset) error {
	data, err := EncodeBundle(det, ds)
	if err != nil {
		return err
	}
	return safeio.WriteFile(path, data, 0o644)
}

// DecodeBundle parses and validates bundle bytes. The bundle is untrusted
// input: the detector patch runs through detect's validation, and the
// normalization maxima are checked against the derived feature space windows
// will be expanded into — a length mismatch would otherwise panic inside
// NormalizeInPlace on the first sampled window. Taking bytes rather than a
// path keeps disk access confined: internal/engine owns bundle loading (the
// evaxlint bundleload rule), everything else consumes decoded generations.
func DecodeBundle(data []byte) (*detect.Detector, *dataset.Dataset, error) {
	var b bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("defense: decoding bundle: %w", err)
	}
	det, err := detect.Unmarshal(b.Detector)
	if err != nil {
		return nil, nil, fmt.Errorf("defense: bundle: %w", err)
	}
	if len(b.Maxima) == 0 {
		return nil, nil, fmt.Errorf("defense: bundle has no normalization maxima")
	}
	if space := hpc.DerivedSpaceSize(sim.CounterCatalog().Len()); len(b.Maxima) != space {
		return nil, nil, fmt.Errorf("defense: bundle carries %d maxima for a %d-dim derived space",
			len(b.Maxima), space)
	}
	for i, m := range b.Maxima {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return nil, nil, fmt.Errorf("defense: bundle maximum %d is non-finite", i)
		}
		if m < 0 {
			return nil, nil, fmt.Errorf("defense: bundle maximum %d is negative (%g)", i, m)
		}
	}
	return det, dataset.FromMaxima(b.Maxima), nil
}
