package engine

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/detect"
	"evax/internal/hpc"
	"evax/internal/sim"
)

// testParts builds an untrained (but seeded, so non-trivially weighted)
// perceptron over the EVAX feature set plus unit maxima: structurally valid,
// deterministic, and cheap — lifecycle tests need shape, not accuracy.
func testParts(t *testing.T, seed int64) (*detect.Detector, *dataset.Dataset) {
	t.Helper()
	fs := detect.EVAXBase()
	fs.SetEngineered(detect.DefaultEngineered(fs))
	d := detect.NewPerceptron(seed, fs)
	maxima := make([]float64, hpc.DerivedSpaceSize(sim.CounterCatalog().Len()))
	for i := range maxima {
		maxima[i] = 1
	}
	return d, dataset.FromMaxima(maxima)
}

// testGen builds an in-memory generation with the given seed and detector
// threshold. Distinct (seed, threshold) pairs yield distinct bundle bytes,
// hence distinct content hashes.
func testGen(t *testing.T, seed int64, threshold float64, backend string) *Generation {
	t.Helper()
	det, ds := testParts(t, seed)
	det.Threshold = threshold
	g, err := New(det, ds, backend)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testCorpus fabricates n deterministic raw counter windows of the
// generation's dimensionality.
func testCorpus(n, rawDim int) []dataset.Sample {
	out := make([]dataset.Sample, n)
	for i := range out {
		raw := make([]float64, rawDim)
		for j := range raw {
			raw[j] = float64((i*31 + j*7) % 97)
		}
		out[i] = dataset.Sample{Raw: raw, Instructions: 2000, Cycles: 3100}
	}
	return out
}

func TestValidBackend(t *testing.T) {
	for s, want := range map[string]bool{
		"":               true,
		BackendFloat:     true,
		BackendQuantized: true,
		"int8":           false,
		"Float":          false,
		"quantised":      false,
	} {
		if got := ValidBackend(s); got != want {
			t.Errorf("ValidBackend(%q) = %v, want %v", s, got, want)
		}
	}
	det, ds := testParts(t, 1)
	g, err := New(det, ds, "fpga")
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("unknown backend: g=%v err=%v", g, err)
	}
}

// TestGenerationHashLineage: the same bundle yields the same content hash
// whether built in memory, saved and re-loaded, or decoded from bytes — the
// provenance operators see in logs and /metrics is a function of the bundle
// alone.
func TestGenerationHashLineage(t *testing.T) {
	det, ds := testParts(t, 5)
	mem, err := New(det, ds, "")
	if err != nil {
		t.Fatal(err)
	}
	if mem.Hash() == 0 || mem.HashHex() != strings.ToLower(mem.HashHex()) || len(mem.HashHex()) != 16 {
		t.Fatalf("hash rendering: %d %q", mem.Hash(), mem.HashHex())
	}
	if mem.Path() != "" {
		t.Fatalf("in-memory generation has path %q", mem.Path())
	}

	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := defense.SaveBundle(path, det, ds); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, BackendFloat)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Hash() != mem.Hash() {
		t.Fatalf("loaded hash %s != in-memory hash %s", loaded.HashHex(), mem.HashHex())
	}
	if loaded.Path() != path {
		t.Fatalf("loaded path %q, want %q", loaded.Path(), path)
	}
	if loaded.RawDim() != sim.CounterCatalog().Len() {
		t.Fatalf("rawDim %d, want catalog %d", loaded.RawDim(), sim.CounterCatalog().Len())
	}

	// A different detector seed is a different bundle, hence a different hash.
	other := testGen(t, 6, det.Threshold, "")
	if other.Hash() == mem.Hash() {
		t.Fatal("distinct bundles collided on content hash")
	}
}

func TestFromBytesRejectsGarbage(t *testing.T) {
	if _, err := FromBytes([]byte("{oops"), "x.json", ""); err == nil {
		t.Fatal("garbage bytes built a generation")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json"), ""); err == nil {
		t.Fatal("missing file built a generation")
	}
}

// TestBackends: the float backend is selected by default (empty string), the
// quantized backend compiles for the perceptron, and both report coherent
// thresholds.
func TestBackends(t *testing.T) {
	g := testGen(t, 7, 0.5, "")
	if g.Backend() != BackendFloat {
		t.Fatalf("default backend %q, want %q", g.Backend(), BackendFloat)
	}
	q := testGen(t, 7, 0.5, BackendQuantized)
	if q.Backend() != BackendQuantized {
		t.Fatalf("backend %q, want %q", q.Backend(), BackendQuantized)
	}
	if g.Threshold() != q.Threshold() {
		t.Fatalf("float threshold %v != quantized threshold %v", g.Threshold(), q.Threshold())
	}
}

// TestScorerDeterminism: two scorers resolved from the same generation agree
// bit-for-bit, and the batch path reproduces the single-row path.
func TestScorerDeterminism(t *testing.T) {
	g := testGen(t, 9, 0.5, "")
	corpus := testCorpus(32, g.RawDim())

	a, b := g.NewScorer(), g.NewScorer()
	if a.Generation() != g || a.Threshold() != g.Threshold() {
		t.Fatal("scorer does not mirror its generation")
	}
	raw := make([]float64, 0, len(corpus)*g.RawDim())
	instr := make([]uint64, len(corpus))
	cycles := make([]uint64, len(corpus))
	single := make([]float64, len(corpus))
	for i := range corpus {
		s := &corpus[i]
		raw = append(raw, s.Raw...)
		instr[i], cycles[i] = s.Instructions, s.Cycles
		single[i] = a.Score(s.Raw, s.Instructions, s.Cycles)
		if got := b.Score(s.Raw, s.Instructions, s.Cycles); got != single[i] {
			t.Fatalf("row %d: scorer B %v != scorer A %v", i, got, single[i])
		}
	}
	batch := make([]float64, len(corpus))
	a.ScoreBatch(raw, instr, cycles, batch)
	if !reflect.DeepEqual(batch, single) {
		t.Fatal("batch scores diverge from single-row scores")
	}
}

// TestScoreBatchZeroAlloc: the shard flush path must not allocate in steady
// state — the zero-downtime swap design hinges on per-batch resolution being
// free.
func TestScoreBatchZeroAlloc(t *testing.T) {
	g := testGen(t, 9, 0.5, "")
	corpus := testCorpus(16, g.RawDim())
	sc := g.NewScorer()
	raw := make([]float64, 0, len(corpus)*g.RawDim())
	instr := make([]uint64, len(corpus))
	cycles := make([]uint64, len(corpus))
	out := make([]float64, len(corpus))
	for i := range corpus {
		raw = append(raw, corpus[i].Raw...)
		instr[i], cycles[i] = corpus[i].Instructions, corpus[i].Cycles
	}
	if n := testing.AllocsPerRun(50, func() {
		sc.ScoreBatch(raw, instr, cycles, out)
	}); n != 0 {
		t.Fatalf("ScoreBatch allocates %.1f times per batch, want 0", n)
	}
}

// isAlwaysOn reports whether fl is the AlwaysOn flagger (func identity).
func isAlwaysOn(fl defense.Flagger) bool {
	f, ok := fl.(defense.FlaggerFunc)
	return ok && reflect.ValueOf(f).Pointer() == reflect.ValueOf(defense.AlwaysOn).Pointer()
}

// TestLoadFlaggerOrSecure: a broken or missing bundle degrades to the
// always-secure flagger with the cause reported; a valid bundle yields the
// generation's scorer as its flagger.
func TestLoadFlaggerOrSecure(t *testing.T) {
	fl, err := LoadFlaggerOrSecure(filepath.Join(t.TempDir(), "missing.json"))
	if err == nil || !isAlwaysOn(fl) {
		t.Fatalf("missing bundle: flagger %T, err %v", fl, err)
	}

	det, ds := testParts(t, 3)
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := defense.SaveBundle(path, det, ds); err != nil {
		t.Fatal(err)
	}
	fl, err = LoadFlaggerOrSecure(path)
	if err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	if _, ok := fl.(*Scorer); !ok {
		t.Fatalf("valid bundle yielded %T, want *Scorer", fl)
	}
}
