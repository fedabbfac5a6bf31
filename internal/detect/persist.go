package detect

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"evax/internal/featureng"
	"evax/internal/hpc"
	"evax/internal/ml"
	"evax/internal/safeio"
	"evax/internal/sim"
)

// savedDetector is the on-disk form of a trained detector — the
// "vendor-distributed patch" the paper envisions for weight and feature
// updates (§VI-B).
type savedDetector struct {
	FeatureSetName string            `json:"feature_set"`
	Indices        []int             `json:"indices"`
	Names          []string          `json:"names"`
	Engineered     []savedANDFeature `json:"engineered"`
	Layers         []savedLayer      `json:"layers"`
	Threshold      float64           `json:"threshold"`
}

type savedANDFeature struct {
	A    int    `json:"a"`
	B    int    `json:"b"`
	Name string `json:"name"`
}

type savedLayer struct {
	In  int         `json:"in"`
	Out int         `json:"out"`
	Act int         `json:"act"`
	W   [][]float64 `json:"w"`
	B   []float64   `json:"b"`
}

// Marshal encodes the detector as JSON.
func (d *Detector) Marshal() ([]byte, error) {
	sd := savedDetector{
		FeatureSetName: d.Plan.Name(),
		Indices:        d.Plan.Indices(),
		Names:          d.Plan.Names(),
		Threshold:      d.Threshold,
	}
	for _, f := range d.Plan.Engineered() {
		sd.Engineered = append(sd.Engineered, savedANDFeature{A: f.A, B: f.B, Name: f.Name})
	}
	for _, l := range d.Net.Layers {
		sd.Layers = append(sd.Layers, savedLayer{In: l.In, Out: l.Out, Act: int(l.Act), W: l.W, B: l.B})
	}
	data, err := json.MarshalIndent(sd, "", " ")
	if err != nil {
		return nil, fmt.Errorf("detect: encoding detector: %w", err)
	}
	return data, nil
}

// Save writes the detector (feature set, engineered features, weights and
// threshold) as JSON, crash-safely: a failed or interrupted save leaves any
// previous patch at path intact.
func (d *Detector) Save(path string) error {
	data, err := d.Marshal()
	if err != nil {
		return err
	}
	return safeio.WriteFile(path, data, 0o644)
}

// validate rejects malformed patches before any plan or network is
// constructed — a vendor-distributed detector update is untrusted input
// (§VI-B), so every structural invariant is checked with a distinct error
// rather than trusted to downstream panics.
func (sd *savedDetector) validate() error {
	if len(sd.Layers) == 0 {
		return fmt.Errorf("detect: invalid patch: detector holds no layers")
	}
	if len(sd.Indices) != len(sd.Names) {
		return fmt.Errorf("detect: invalid patch: %d feature indices vs %d names",
			len(sd.Indices), len(sd.Names))
	}
	space := hpc.DerivedSpaceSize(sim.CounterCatalog().Len())
	for i, idx := range sd.Indices {
		if idx < 0 || idx >= space {
			return fmt.Errorf("detect: invalid patch: feature %d (%q) index %d outside derived space [0,%d)",
				i, sd.Names[i], idx, space)
		}
	}
	baseDim := len(sd.Indices)
	for i, f := range sd.Engineered {
		if f.A < 0 || f.A >= baseDim || f.B < 0 || f.B >= baseDim {
			return fmt.Errorf("detect: invalid patch: engineered feature %d (%q) refers to base pair (%d,%d) outside [0,%d)",
				i, f.Name, f.A, f.B, baseDim)
		}
	}
	wantIn := baseDim + len(sd.Engineered)
	for li, l := range sd.Layers {
		if l.In != wantIn {
			return fmt.Errorf("detect: invalid patch: layer %d input dim %d does not match %d (dimension mismatch between layers)",
				li, l.In, wantIn)
		}
		if l.Out <= 0 {
			return fmt.Errorf("detect: invalid patch: layer %d output dim %d", li, l.Out)
		}
		if l.Act < 0 || l.Act > int(ml.Tanh) {
			return fmt.Errorf("detect: invalid patch: layer %d activation %d outside [0,%d]",
				li, l.Act, int(ml.Tanh))
		}
		if len(l.W) != l.Out {
			return fmt.Errorf("detect: invalid patch: layer %d has %d weight rows for %d outputs",
				li, len(l.W), l.Out)
		}
		for o, row := range l.W {
			if len(row) != l.In {
				return fmt.Errorf("detect: invalid patch: layer %d weight row %d has %d columns for %d inputs",
					li, o, len(row), l.In)
			}
			for _, w := range row {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					return fmt.Errorf("detect: invalid patch: layer %d holds a non-finite weight", li)
				}
			}
		}
		if len(l.B) != l.Out {
			return fmt.Errorf("detect: invalid patch: layer %d has %d biases for %d outputs",
				li, len(l.B), l.Out)
		}
		for _, b := range l.B {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				return fmt.Errorf("detect: invalid patch: layer %d holds a non-finite bias", li)
			}
		}
		wantIn = l.Out
	}
	if math.IsNaN(sd.Threshold) || math.IsInf(sd.Threshold, 0) {
		return fmt.Errorf("detect: invalid patch: non-finite threshold")
	}
	if sd.Threshold < 0 {
		return fmt.Errorf("detect: invalid patch: negative threshold %g (detector would flag every window)",
			sd.Threshold)
	}
	return nil
}

// Unmarshal decodes a detector encoded by Marshal, rejecting malformed
// patches (see validate) before constructing anything.
func Unmarshal(data []byte) (*Detector, error) {
	var sd savedDetector
	if err := json.Unmarshal(data, &sd); err != nil {
		return nil, fmt.Errorf("detect: decoding detector: %w", err)
	}
	if err := sd.validate(); err != nil {
		return nil, err
	}
	plan := NewPlan(sd.FeatureSetName, sd.Indices, sd.Names)
	var eng []featureng.ANDFeature
	for _, f := range sd.Engineered {
		eng = append(eng, featureng.ANDFeature{A: f.A, B: f.B, Name: f.Name})
	}
	plan.SetEngineered(eng)
	sizes := []int{sd.Layers[0].In}
	for _, l := range sd.Layers {
		sizes = append(sizes, l.Out)
	}
	hidden := ml.Linear
	if len(sd.Layers) > 1 {
		hidden = ml.Activation(sd.Layers[0].Act)
	}
	out := ml.Activation(sd.Layers[len(sd.Layers)-1].Act)
	net := ml.New(0, sizes, hidden, out)
	for li, l := range sd.Layers {
		nl := net.Layers[li]
		nl.Act = ml.Activation(l.Act)
		for o := range l.W {
			copy(nl.W[o], l.W[o])
		}
		copy(nl.B, l.B)
	}
	d := &Detector{Plan: plan, Net: net, Threshold: sd.Threshold}
	d.compileKernel()
	return d, nil
}

// Load reads a detector saved by Save, with the same patch validation as
// Unmarshal.
func Load(path string) (*Detector, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("detect: loading %s: %w", path, err)
	}
	return d, nil
}
