// Package engine owns the bundle→detector→scorer lifecycle: it turns a
// deployable detection bundle into an immutable, versioned Generation
// (content hash + compiled float/quantized kernel + flagger wiring) and
// hot-swaps generations behind an atomic pointer with canary gating,
// crash-safe staging, and automatic rollback — the paper's "pro-active &
// adaptive" loop made operational (live vaccination). Every serving
// consumer (serve shards, the defense flagger, replay) resolves its scorer
// per batch from the Swapper's current generation, so a validated candidate
// goes live with zero dropped frames: in-flight batches finish on the
// generation they started on, and the next batch scores on the new one.
//
// The package is the only one allowed to load bundles from disk (the
// evaxlint bundleload rule): defense.DecodeBundle validates bytes, engine
// decides which bytes are trusted to go live. See DESIGN.md §14 for the
// generation state machine (staged → canaried → active → fallback →
// rolled-back).
package engine

import (
	"fmt"
	"os"

	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/detect"
	"evax/internal/kernel"
	"evax/internal/safeio"
)

// Backend selectors: the fused float kernel (bit-identical to offline
// scoring) and the quantized int8 kernel (the paper's hardware arithmetic;
// fastest, gated by verdict agreement). The empty string means float.
const (
	BackendFloat     = "float"
	BackendQuantized = "quantized"
)

// ValidBackend reports whether s names a scoring backend. Flag handlers
// should call this before any construction so an operator typo surfaces as
// a clean usage message, not a deep compile error.
func ValidBackend(s string) bool {
	switch s {
	case BackendFloat, BackendQuantized, "":
		return true
	}
	return false
}

// Generation is one immutable, versioned deployment of the detection
// pipeline: the bundle's content hash (FNV-1a over the bundle bytes — the
// provenance operators see in logs, stats frames and /metrics), the decoded
// detector + normalizer, and the kernel compiled for the selected backend.
// A Generation never mutates after construction; consumers share it freely
// and clone per-consumer scratch through NewScorer.
type Generation struct {
	hash    uint64
	path    string
	backend string
	data    []byte // encoded bundle bytes, the unit the manager persists

	det *detect.Detector
	ds  *dataset.Dataset

	// be is the compiled master backend; scorers clone it.
	be kernel.Backend
}

// build compiles a generation from decoded parts.
func build(det *detect.Detector, ds *dataset.Dataset, backend, path string, data []byte) (*Generation, error) {
	g := &Generation{
		hash:    safeio.Checksum(data),
		path:    path,
		backend: backend,
		data:    data,
		det:     det,
		ds:      ds,
	}
	switch backend {
	case BackendQuantized:
		k, err := detect.CompileScorer(det, ds.Maxima())
		if err != nil {
			return nil, fmt.Errorf("engine: quantized backend: %w", err)
		}
		q, err := kernel.Quantize(k)
		if err != nil {
			return nil, fmt.Errorf("engine: quantized backend: %w", err)
		}
		g.be = q
	case BackendFloat, "":
		g.backend = BackendFloat
		g.be = detect.CompileBackend(det, ds.Maxima())
	default:
		return nil, fmt.Errorf("engine: unknown backend %q (want %q or %q)", backend, BackendFloat, BackendQuantized)
	}
	return g, nil
}

// New builds a generation from an in-memory detector and normalizer. The
// content hash is computed over the encoded bundle bytes, so an in-memory
// generation and the same bundle loaded from disk report the same
// provenance lineage.
func New(det *detect.Detector, ds *dataset.Dataset, backend string) (*Generation, error) {
	data, err := defense.EncodeBundle(det, ds)
	if err != nil {
		return nil, err
	}
	return FromBytes(data, "", backend)
}

// FromBytes decodes, validates and compiles bundle bytes into a generation.
// path is recorded for provenance only.
func FromBytes(data []byte, path, backend string) (*Generation, error) {
	det, ds, err := defense.DecodeBundle(data)
	if err != nil {
		if path != "" {
			return nil, fmt.Errorf("engine: bundle %s: %w", path, err)
		}
		return nil, err
	}
	return build(det, ds, backend, path, data)
}

// Load reads a bundle file into a generation: the one sanctioned
// disk→generation path (evaxlint's bundleload rule confines bundle loading
// to this package).
func Load(path, backend string) (*Generation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromBytes(data, path, backend)
}

// Hash returns the FNV-1a content hash of the generation's bundle bytes.
func (g *Generation) Hash() uint64 { return g.hash }

// HashHex renders the content hash the way logs, stats frames and /metrics
// report it.
func (g *Generation) HashHex() string { return fmt.Sprintf("%016x", g.hash) }

// Path returns the bundle file this generation was loaded from ("" for
// in-memory generations).
func (g *Generation) Path() string { return g.path }

// Backend returns the compiled backend selector (BackendFloat for deep
// detectors, which score through the network).
func (g *Generation) Backend() string { return g.backend }

// RawDim returns the base counter-space width clients must stream.
func (g *Generation) RawDim() int { return g.be.RawDim() }

// Threshold exposes the decision boundary of the compiled backend.
func (g *Generation) Threshold() float64 { return g.be.Threshold() }

// Detector returns the decoded detector. Callers must not mutate it; clone
// first (generations are immutable).
func (g *Generation) Detector() *detect.Detector { return g.det }

// Dataset returns the normalizer the detector was trained with.
func (g *Generation) Dataset() *dataset.Dataset { return g.ds }

// Flagger returns a defense controller flagger pinned to this generation:
// a private scorer, flagging on the generation's own backend.
func (g *Generation) Flagger() defense.Flagger { return g.NewScorer() }

// LoadFlaggerOrSecure loads a bundle into a generation and returns its
// flagger, degrading to the AlwaysOn flagger when the bundle is missing,
// torn, or fails validation — the paper's safe default (full protection, no
// performance recovery) until a valid detector update arrives. The error
// explains why the fallback engaged; the returned Flagger is usable either
// way.
func LoadFlaggerOrSecure(path string) (defense.Flagger, error) {
	g, err := Load(path, BackendFloat)
	if err != nil {
		return defense.AlwaysOn, err
	}
	return g.Flagger(), nil
}
