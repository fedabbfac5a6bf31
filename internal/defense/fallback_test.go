package defense_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"evax/internal/attacks"
	"evax/internal/dataset"
	"evax/internal/defense"
	"evax/internal/detect"
	"evax/internal/engine"
	"evax/internal/faultinject"
	"evax/internal/hpc"
	"evax/internal/safeio"
	"evax/internal/sim"
)

// The graceful-degradation contract: a bundle that cannot be trusted brings
// the controller up always-secure. Bundles reach the controller only through
// engine.LoadFlaggerOrSecure (the evaxlint bundleload rule), so these tests
// live in an external test package and drive that loader.

// syntheticParts builds an untrained perceptron over the EVAX feature set
// plus maxima spanning the derived space, all set to fill.
func syntheticParts(fill float64) (*detect.Detector, *dataset.Dataset) {
	fs := detect.EVAXBase()
	fs.SetEngineered(detect.DefaultEngineered(fs))
	maxima := make([]float64, hpc.DerivedSpaceSize(sim.CounterCatalog().Len()))
	for i := range maxima {
		maxima[i] = fill
	}
	return detect.NewPerceptron(3, fs), dataset.FromMaxima(maxima)
}

// syntheticBundle writes a structurally valid bundle without training.
func syntheticBundle(t *testing.T, path string) (*detect.Detector, *dataset.Dataset) {
	t.Helper()
	d, ds := syntheticParts(1)
	if err := defense.SaveBundle(path, d, ds); err != nil {
		t.Fatal(err)
	}
	return d, ds
}

// corruptBundle rewrites one top-level field of the bundle at path.
func corruptBundle(t *testing.T, path, field string, mutate func(json.RawMessage) json.RawMessage) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	b[field] = mutate(b[field])
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := safeio.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// isAlwaysOn reports whether fl is the AlwaysOn flagger (func identity).
func isAlwaysOn(fl defense.Flagger) bool {
	f, ok := fl.(defense.FlaggerFunc)
	return ok && reflect.ValueOf(f).Pointer() == reflect.ValueOf(defense.AlwaysOn).Pointer()
}

// TestLoadBundleOrSecureFallsBack: every failure mode — missing file,
// garbage bytes, malformed detector, broken maxima — degrades to the
// always-secure flagger instead of refusing to run, and the cause is
// reported so operators see why performance recovery is off.
func TestLoadBundleOrSecureFallsBack(t *testing.T) {
	dir := t.TempDir()

	corruptions := map[string]func(path string){
		"missing file": func(path string) {},
		"garbage bytes": func(path string) {
			if err := safeio.WriteFile(path, []byte("{oops"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"malformed detector": func(path string) {
			syntheticBundle(t, path)
			corruptBundle(t, path, "detector", func(json.RawMessage) json.RawMessage { return json.RawMessage(`null`) })
		},
		"truncated maxima": func(path string) {
			syntheticBundle(t, path)
			corruptBundle(t, path, "maxima", func(json.RawMessage) json.RawMessage { return json.RawMessage(`[1,1,1]`) })
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".json")
			corrupt(path)
			fl, err := engine.LoadFlaggerOrSecure(path)
			if err == nil {
				t.Fatal("broken bundle loaded without reporting a cause")
			}
			if !isAlwaysOn(fl) {
				t.Fatalf("fallback flagger is %T, want AlwaysOn", fl)
			}
		})
	}

	// A valid bundle loads normally: no error, a real detector flagger.
	path := filepath.Join(dir, "good.json")
	syntheticBundle(t, path)
	fl, err := engine.LoadFlaggerOrSecure(path)
	if err != nil {
		t.Fatalf("valid bundle rejected: %v", err)
	}
	if _, ok := fl.(*engine.Scorer); !ok {
		t.Fatalf("valid bundle yielded %T, want *engine.Scorer", fl)
	}
}

// TestTornBundleUpdateKeepsOldBundle: a torn write during a bundle update
// (injected deterministically) fails the save but leaves the previous valid
// bundle on disk — the defense keeps running on the old detector rather
// than falling back at all.
func TestTornBundleUpdateKeepsOldBundle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	det, ds := syntheticBundle(t, path)

	restore := safeio.SetHook(faultinject.TornWriteHook(0))
	err := defense.SaveBundle(path, det, ds)
	restore()
	if !errors.Is(err, safeio.ErrTorn) {
		t.Fatalf("torn save err = %v, want ErrTorn", err)
	}

	fl, err := engine.LoadFlaggerOrSecure(path)
	if err != nil {
		t.Fatalf("old bundle unreadable after torn update: %v", err)
	}
	if _, ok := fl.(*engine.Scorer); !ok {
		t.Fatalf("flagger is %T, want the previous bundle's *engine.Scorer", fl)
	}
}

// TestTornFirstSaveFallsBackSecure: when the very first bundle save tears
// (no previous bundle to keep), the adaptive controller comes up in
// always-secure mode and still mitigates every window of a live attack —
// graceful degradation end to end.
func TestTornFirstSaveFallsBackSecure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	det, ds := syntheticParts(0)

	restore := safeio.SetHook(faultinject.TornWriteHook(0))
	err := defense.SaveBundle(path, det, ds)
	restore()
	if !errors.Is(err, safeio.ErrTorn) {
		t.Fatalf("torn save err = %v, want ErrTorn", err)
	}

	fl, err := engine.LoadFlaggerOrSecure(path)
	if err == nil || !isAlwaysOn(fl) {
		t.Fatalf("want AlwaysOn fallback with cause, got %T, err %v", fl, err)
	}

	dcfg := defense.DefaultConfig(sim.PolicyInvisiSpecSpectre)
	dcfg.SampleInterval = 1000
	res := defense.RunProgram(sim.DefaultConfig(), attacks.SpectrePHT(77, 10), fl, dcfg, 1_000_000)
	if res.Windows == 0 {
		t.Fatal("no windows sampled")
	}
	if res.Flags != res.Windows {
		t.Fatalf("always-secure fallback flagged %d of %d windows", res.Flags, res.Windows)
	}
	if res.SecureInstr == 0 {
		t.Fatal("mitigation never engaged under the fallback")
	}
}
